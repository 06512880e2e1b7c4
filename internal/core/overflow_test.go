package core

import (
	"math"
	"strings"
	"testing"
)

// TestNewSpaceOverflow: an initial allocation whose chunk count exceeds
// int64 must be refused, not wrapped.
func TestNewSpaceOverflow(t *testing.T) {
	big := 1 << 31
	if _, err := NewSpace([]int{big, big, big}); err == nil {
		t.Fatal("NewSpace accepted an allocation of 2^93 chunks")
	}
}

// TestExtendOverflow: growth that would push Total past int64 fails and
// leaves the space unchanged.
func TestExtendOverflow(t *testing.T) {
	s, err := NewSpace([]int{1 << 20, 1 << 20})
	if err != nil {
		t.Fatalf("2^40 chunks should be representable: %v", err)
	}
	before := s.Total()
	boundsBefore := s.Bounds()
	// Extending dim 0 by 2^43 adds 2^43 * 2^20 = 2^63 chunks: overflow.
	if err := s.Extend(0, 1<<43); err == nil {
		t.Fatal("Extend accepted int64 overflow")
	}
	if s.Total() != before {
		t.Fatalf("failed extend changed total: %d -> %d", before, s.Total())
	}
	if got := s.Bounds(); got[0] != boundsBefore[0] || got[1] != boundsBefore[1] {
		t.Fatalf("failed extend changed bounds: %v -> %v", boundsBefore, got)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("space inconsistent after refused extend: %v", err)
	}
	// The space must remain fully usable.
	if err := s.Extend(0, 1); err != nil {
		t.Fatalf("extend after refused overflow: %v", err)
	}
	if s.Total() != before+(1<<20) {
		t.Fatalf("total after recovery = %d", s.Total())
	}
}

// TestLargeSparseHistoryAddresses exercises addresses beyond 2^32 so
// linear chunk addresses are demonstrably int64-clean.
func TestLargeSparseHistoryAddresses(t *testing.T) {
	s, err := NewSpace([]int{1 << 16, 1 << 16}) // 2^32 chunks
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(0, 1); err != nil { // appends a 2^16-chunk segment
		t.Fatal(err)
	}
	idx := []int{1 << 16, 100} // inside the appended segment
	q, err := s.Map(idx)
	if err != nil {
		t.Fatal(err)
	}
	if q < int64(math.MaxUint32) {
		t.Fatalf("expected an address beyond 2^32, got %d", q)
	}
	back, err := s.Inverse(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back[0] != idx[0] || back[1] != idx[1] {
		t.Fatalf("inverse(%d) = %v, want %v", q, back, idx)
	}
}

// TestBreakMergeProducesValidSpaces: spaces grown with merging disabled
// still satisfy every structural invariant and stay a bijection.
func TestBreakMergeProducesValidSpaces(t *testing.T) {
	s, err := NewSpace([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.BreakMerge()
		if err := s.Extend(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Check(); err != nil {
		t.Fatalf("unmerged space invalid: %v", err)
	}
	if got := s.NumRecords(); got < 11 {
		t.Fatalf("records = %d, want one per broken extension", got)
	}
	for i := int64(0); i < s.Total(); i++ {
		idx, err := s.Inverse(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q := s.MustMap(idx); q != i {
			t.Fatalf("unmerged bijection broken at %d -> %v -> %d", i, idx, q)
		}
	}
}

// TestDumpMentionsSentinels: the debug dump must expose the sentinel
// records (the paper's -1 rows) so drxdump output matches Fig. 3b.
func TestDumpMentionsSentinels(t *testing.T) {
	s, err := NewSpace([]int{4, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Dump(), "-1") {
		t.Fatalf("dump lacks sentinel rows:\n%s", s.Dump())
	}
}
