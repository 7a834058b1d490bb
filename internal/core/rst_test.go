package core

import (
	"testing"

	"mmt/internal/isa"
	"mmt/internal/prog"
)

func TestRSTInitialState(t *testing.T) {
	// ME: everything shared.
	r := NewRST(4, prog.ModeME)
	for reg := 0; reg < isa.NumRegs; reg++ {
		if !r.Shared(0, 3, uint8(reg)) {
			t.Errorf("ME reg %d not shared at init", reg)
		}
	}
	// MT: everything shared except SP (§4.2.6).
	r = NewRST(4, prog.ModeMT)
	if r.Shared(0, 1, isa.RegSP) {
		t.Error("MT stack pointers shared at init")
	}
	if !r.Shared(0, 1, isa.RegRA) {
		t.Error("MT other registers not shared at init")
	}
}

func TestRSTWriteMergedAndSplit(t *testing.T) {
	r := NewRST(2, prog.ModeME)
	r.WriteSplit(0, 5)
	if r.Shared(0, 1, 5) {
		t.Error("split write left register shared")
	}
	r.WriteMerged(ITIDOf(0).With(1), 5)
	if !r.Shared(0, 1, 5) {
		t.Error("merged write did not share register")
	}
	// Writes to r0 are ignored.
	r.WriteSplit(0, isa.RegZero)
	if !r.Shared(0, 1, isa.RegZero) {
		t.Error("r0 became unshared")
	}
}

func TestRSTMergeInto(t *testing.T) {
	r := NewRST(2, prog.ModeME)
	r.WriteSplit(0, 7)
	r.WriteSplit(1, 7)
	r.MergeInto(0, 1, 7)
	if !r.Shared(0, 1, 7) {
		t.Error("MergeInto did not share")
	}
	if !r.byMerge[1][7] {
		t.Error("byMerge attribution missing")
	}
	if r.MergeSets != 1 {
		t.Errorf("MergeSets = %d", r.MergeSets)
	}
	// Merging an already-shared register is a no-op.
	r.MergeInto(0, 1, 7)
	if r.MergeSets != 1 {
		t.Error("redundant merge counted")
	}
	// A subsequent write clears the attribution.
	r.WriteMerged(ITIDOf(0).With(1), 7)
	if r.byMerge[1][7] {
		t.Error("write did not clear byMerge")
	}
}

// partition adapts RST.Partition to slices for the assertions below.
func partition(r *RST, itid ITID, srcs []uint8) ([]ITID, []bool) {
	cs := r.Partition(itid, srcs)
	return cs.ITID[:cs.N], cs.RegMergeAssisted[:cs.N]
}

func TestRSTPartitionAllShared(t *testing.T) {
	r := NewRST(4, prog.ModeME)
	itid := ITID(0b1111)
	classes, rm := partition(r, itid, []uint8{4, 5})
	if len(classes) != 1 || classes[0] != itid {
		t.Errorf("classes = %v", classes)
	}
	if rm[0] {
		t.Error("spurious regmerge attribution")
	}
}

func TestRSTPartitionSplitsByVersion(t *testing.T) {
	r := NewRST(4, prog.ModeME)
	// Thread 2 writes reg 4 privately: {0,1,3} stay together, {2} splits.
	r.WriteSplit(2, 4)
	classes, _ := partition(r, ITID(0b1111), []uint8{4})
	if len(classes) != 2 {
		t.Fatalf("classes = %v", classes)
	}
	// Chooser order: biggest class first.
	if classes[0] != ITIDOf(0).With(1).With(3) || classes[1] != ITIDOf(2) {
		t.Errorf("classes = %v, %v", classes[0], classes[1])
	}
}

func TestRSTPartitionFullSplit(t *testing.T) {
	r := NewRST(4, prog.ModeME)
	for th := 0; th < 4; th++ {
		r.WriteSplit(th, 6)
	}
	classes, _ := partition(r, ITID(0b1111), []uint8{6})
	if len(classes) != 4 {
		t.Errorf("classes = %v", classes)
	}
	for i, cl := range classes {
		if cl.Count() != 1 {
			t.Errorf("class %d = %v", i, cl)
		}
	}
}

func TestRSTPartitionPairs(t *testing.T) {
	r := NewRST(4, prog.ModeME)
	// Pair up {0,1} and {2,3} differently.
	r.WriteMerged(ITIDOf(0).With(1), 8)
	r.WriteMerged(ITIDOf(2).With(3), 8)
	classes, _ := partition(r, ITID(0b1111), []uint8{8})
	if len(classes) != 2 || classes[0].Count() != 2 || classes[1].Count() != 2 {
		t.Errorf("classes = %v", classes)
	}
}

func TestRSTPartitionMultipleSources(t *testing.T) {
	r := NewRST(2, prog.ModeME)
	// reg4 shared, reg5 split: instruction reading both must split.
	r.WriteSplit(0, 5)
	classes, _ := partition(r, ITID(0b11), []uint8{4, 5})
	if len(classes) != 2 {
		t.Errorf("classes = %v", classes)
	}
	// Instruction reading only reg4 stays merged.
	classes, _ = partition(r, ITID(0b11), []uint8{4})
	if len(classes) != 1 {
		t.Errorf("classes = %v", classes)
	}
}

func TestRSTPartitionSingleton(t *testing.T) {
	r := NewRST(2, prog.ModeME)
	classes, rm := partition(r, ITIDOf(1), []uint8{4})
	if len(classes) != 1 || classes[0] != ITIDOf(1) || rm[0] {
		t.Errorf("singleton partition = %v %v", classes, rm)
	}
}

func TestRSTPartitionRegZeroIgnored(t *testing.T) {
	r := NewRST(2, prog.ModeME)
	// r0 never splits an instruction even if versions were touched.
	classes, _ := partition(r, ITID(0b11), []uint8{isa.RegZero})
	if len(classes) != 1 {
		t.Errorf("classes = %v", classes)
	}
}

func TestRSTPartitionRegMergeAttribution(t *testing.T) {
	r := NewRST(2, prog.ModeME)
	r.WriteSplit(0, 9)
	r.WriteSplit(1, 9)
	r.MergeInto(0, 1, 9)
	classes, rm := partition(r, ITID(0b11), []uint8{9})
	if len(classes) != 1 || !rm[0] {
		t.Errorf("classes=%v rm=%v", classes, rm)
	}
}

func TestRSTSharedCount(t *testing.T) {
	r := NewRST(2, prog.ModeMT)
	if got := r.SharedCount(0, 1); got != isa.NumRegs-1 {
		t.Errorf("MT shared count = %d", got)
	}
	r.Desync(1)
	// Only r0 remains shared (Desync skips reg 0).
	if got := r.SharedCount(0, 1); got != 1 {
		t.Errorf("after desync = %d", got)
	}
}
