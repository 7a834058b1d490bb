package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mmt/internal/isa"
	"mmt/internal/prog"
)

func TestSplitNetworkEntryCount(t *testing.T) {
	// Table 3: 11 sharing combinations for 4 threads (6 pairs, 4 triples,
	// 1 quad).
	if n := NewSplitNetwork(4).NumEntries(); n != 11 {
		t.Errorf("entries = %d, want 11", n)
	}
	if n := NewSplitNetwork(2).NumEntries(); n != 1 {
		t.Errorf("2-thread entries = %d, want 1", n)
	}
	if n := NewSplitNetwork(3).NumEntries(); n != 4 {
		t.Errorf("3-thread entries = %d, want 4", n)
	}
}

func TestSplitNetworkAllShared(t *testing.T) {
	sn := NewSplitNetwork(4)
	all := func(i, j int) bool { return true }
	got := sn.Evaluate(all, ITID(0b1111))
	if len(got) != 1 || got[0] != ITID(0b1111) {
		t.Errorf("all-shared = %v", got)
	}
	// Subset ITIDs stay merged within themselves.
	got = sn.Evaluate(all, ITID(0b0110))
	if len(got) != 1 || got[0] != ITID(0b0110) {
		t.Errorf("subset = %v", got)
	}
}

func TestSplitNetworkNoneShared(t *testing.T) {
	sn := NewSplitNetwork(4)
	none := func(i, j int) bool { return false }
	got := sn.Evaluate(none, ITID(0b1111))
	if len(got) != 4 {
		t.Errorf("none-shared = %v", got)
	}
	for _, e := range got {
		if e.Count() != 1 {
			t.Errorf("non-singleton %v", e)
		}
	}
}

func TestSplitNetworkPaperExample(t *testing.T) {
	// §4.2.2's example: ITID 0110 can stay merged or split into 0100 and
	// 0010 — entries outside {0110, 0100, 0010} are filtered out.
	sn := NewSplitNetwork(4)
	// Threads 1 and 2 do NOT share; everything else does.
	pair := func(i, j int) bool { return !(i == 1 && j == 2 || i == 2 && j == 1) }
	got := sn.Evaluate(pair, ITID(0b0110))
	if len(got) != 2 {
		t.Fatalf("split = %v", got)
	}
	set := map[ITID]bool{got[0]: true, got[1]: true}
	if !set[ITIDOf(1)] || !set[ITIDOf(2)] {
		t.Errorf("split = %v, want {0100, 0010}", got)
	}
}

func TestSplitNetworkChoosesLargest(t *testing.T) {
	sn := NewSplitNetwork(4)
	// {0,1,2} mutually share; 3 is alone.
	pair := func(i, j int) bool { return i != 3 && j != 3 }
	got := sn.Evaluate(pair, ITID(0b1111))
	if len(got) != 2 {
		t.Fatalf("split = %v", got)
	}
	if got[0] != ITID(0b0111) {
		t.Errorf("chooser picked %v, want 0111 first", got[0])
	}
	if got[1] != ITIDOf(3) {
		t.Errorf("remainder = %v", got[1])
	}
}

// TestSplitNetworkMatchesPartition is the hardware/model equivalence
// property: for random register-version states and random instructions,
// the §4.2.2 filter/chooser cascade produces exactly the partition the
// simulator's RST computes.
func TestSplitNetworkMatchesPartition(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nthreads := 2 + r.Intn(3)
		rst := NewRST(nthreads, prog.ModeME)
		// Random history of merged and split writes.
		for i := 0; i < 60; i++ {
			reg := uint8(1 + r.Intn(isa.NumRegs-1))
			if r.Intn(2) == 0 {
				var m ITID
				for m.Count() < 2 {
					m = ITID(r.Intn(1<<nthreads)) & (1<<nthreads - 1)
				}
				rst.WriteMerged(m, reg)
			} else {
				rst.WriteSplit(r.Intn(nthreads), reg)
			}
		}
		sn := NewSplitNetwork(nthreads)
		for trial := 0; trial < 30; trial++ {
			nsrc := r.Intn(3)
			srcs := make([]uint8, nsrc)
			for i := range srcs {
				srcs[i] = uint8(r.Intn(isa.NumRegs))
			}
			var itid ITID
			for itid == 0 {
				itid = ITID(r.Intn(1<<nthreads)) & (1<<nthreads - 1)
			}
			want, _ := partition(rst, itid, srcs)
			pair := func(i, j int) bool {
				for _, s := range srcs {
					if s != isa.RegZero && !rst.Shared(i, j, s) {
						return false
					}
				}
				return true
			}
			got := sn.Evaluate(pair, itid)
			if !sameITIDSet(got, want) {
				t.Logf("seed %d: itid %v srcs %v: hardware %v vs partition %v",
					seed, itid, srcs, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func sameITIDSet(a, b []ITID) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]ITID(nil), a...)
	bs := append([]ITID(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func TestSplitNetworkGateEstimate(t *testing.T) {
	sn := NewSplitNetwork(4)
	g2 := sn.GateEstimate(2)
	g0 := sn.GateEstimate(0)
	if g2 <= g0 || g0 <= 0 {
		t.Errorf("gate estimates: %d (2 srcs) vs %d (0 srcs)", g2, g0)
	}
	// Order of magnitude: a few hundred gates, consistent with the
	// paper's small synthesized area.
	if g2 > 2000 {
		t.Errorf("gate estimate %d implausibly large", g2)
	}
}
