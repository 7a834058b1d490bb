package core

import (
	"testing"
	"testing/quick"
)

func TestITIDBasics(t *testing.T) {
	m := ITIDOf(1).With(3)
	if !m.Has(1) || !m.Has(3) || m.Has(0) || m.Has(2) {
		t.Errorf("membership wrong for %v", m)
	}
	if m.Count() != 2 {
		t.Errorf("count = %d", m.Count())
	}
	if m.First() != 1 {
		t.Errorf("first = %d", m.First())
	}
	got := members(m)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("threads = %v", got)
	}
	if m.Without(1) != ITIDOf(3) {
		t.Errorf("without = %v", m.Without(1))
	}
	if ITID(0).First() != -1 {
		t.Error("empty first")
	}
}

func TestITIDString(t *testing.T) {
	if s := ITIDOf(0).With(1).With(2).With(3).String(); s != "1111" {
		t.Errorf("full = %q", s)
	}
	if s := ITIDOf(1).With(2).String(); s != "0110" {
		t.Errorf("0110 = %q", s)
	}
	if s := ITID(0).String(); s != "0000" {
		t.Errorf("empty = %q", s)
	}
}

// members collects m's threads with the core's iteration idiom: clear
// the lowest set bit until the mask is empty.
func members(m ITID) []int {
	var out []int
	for rest := m; rest != 0; rest &= rest - 1 {
		out = append(out, rest.First())
	}
	return out
}

func TestITIDProperties(t *testing.T) {
	prop := func(raw uint8) bool {
		m := ITID(raw & 0xf)
		ths := members(m)
		// The iteration visits Count threads, each a member, ascending.
		if len(ths) != m.Count() {
			return false
		}
		for i, th := range ths {
			if !m.Has(th) || (i > 0 && ths[i-1] >= th) {
				return false
			}
			// With/Without round trip.
			if m.Without(th).With(th) != m {
				return false
			}
		}
		// First is the minimum member.
		if m != 0 && ths[0] != m.First() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
