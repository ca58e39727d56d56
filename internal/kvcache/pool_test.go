package kvcache

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// fork returns n pages: the first shared pages of stream head, then
// stream body — a sequence that branches off head after shared pages.
func fork(head uint64, shared int, body uint64, n int) Seq {
	return Seq{Head: head, HeadPages: int32(shared), Body: body, N: int32(n)}
}

func TestPageCount(t *testing.T) {
	cases := []struct{ tokens, page, want int }{
		{0, 16, 0}, {1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {-5, 16, 0}, {1024, 16, 64},
	}
	for _, c := range cases {
		if got := PageCount(c.tokens, c.page); got != c.want {
			t.Errorf("PageCount(%d,%d) = %d, want %d", c.tokens, c.page, got, c.want)
		}
	}
}

func TestMatchEmptyPool(t *testing.T) {
	p := New(1000, 16)
	if got := p.Match(Stream(1, 3)); got != 0 {
		t.Fatalf("Match on empty pool = %d, want 0", got)
	}
}

func TestInsertThenMatch(t *testing.T) {
	p := New(1000, 16)
	added := p.Insert(Stream(1, 3))
	if added != 3 {
		t.Fatalf("Insert added %d, want 3", added)
	}
	if got := p.Match(Stream(1, 4)); got != 3 {
		t.Fatalf("Match = %d, want 3", got)
	}
	if got := p.Match(fork(1, 1, 9, 2)); got != 1 {
		t.Fatalf("partial Match = %d, want 1", got)
	}
	if got := p.Match(Stream(9, 1)); got != 0 {
		t.Fatalf("mismatch Match = %d, want 0", got)
	}
	if p.Used() != 3*16 {
		t.Fatalf("Used = %d, want 48", p.Used())
	}
}

func TestInsertDeduplicates(t *testing.T) {
	p := New(1000, 16)
	p.Insert(Stream(1, 3))
	if added := p.Insert(Stream(1, 4)); added != 1 {
		t.Fatalf("second Insert added %d, want 1 (dedup)", added)
	}
	if p.Used() != 4*16 {
		t.Fatalf("Used = %d, want 64", p.Used())
	}
}

func TestBranchingPrefixes(t *testing.T) {
	p := New(1000, 16)
	p.Insert(Stream(1, 3))
	p.Insert(fork(1, 2, 7, 4))
	if got := p.Match(Stream(1, 3)); got != 3 {
		t.Fatalf("branch A match = %d, want 3", got)
	}
	if got := p.Match(fork(1, 2, 7, 4)); got != 4 {
		t.Fatalf("branch B match = %d, want 4", got)
	}
	if p.Used() != 5*16 {
		t.Fatalf("Used = %d, want 80 (shared prefix stored once)", p.Used())
	}
}

func TestMatchTokensStats(t *testing.T) {
	p := New(1000, 16)
	p.Insert(Stream(1, 2))
	hit := p.MatchTokens(Stream(1, 3), 40)
	if hit != 32 {
		t.Fatalf("MatchTokens = %d, want 32", hit)
	}
	st := p.Stats()
	if st.HitTokens != 32 || st.MissTokens != 8 || st.Lookups != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r := st.HitRate(); r != 0.8 {
		t.Fatalf("HitRate = %.2f, want 0.8", r)
	}
	// Hit capped at totalTokens.
	if hit := p.MatchTokens(Stream(1, 2), 20); hit != 20 {
		t.Fatalf("capped MatchTokens = %d, want 20", hit)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(4*16, 16) // 4 pages
	p.Insert(Stream(1, 2))
	p.Insert(Stream(10, 2))
	// Refresh branch 1; then overflow should evict from branch 10 first.
	p.Match(Stream(1, 2))
	p.Insert(Stream(100, 2)) // needs 2 pages → evicts branch 10 leaf-first
	if got := p.Match(Stream(1, 2)); got != 2 {
		t.Fatalf("recently used branch evicted; match = %d, want 2", got)
	}
	if got := p.Match(Stream(10, 2)); got != 0 {
		t.Fatalf("LRU branch survived; match = %d, want 0", got)
	}
	if p.Stats().Evictions != 2 {
		t.Fatalf("Evictions = %d, want 2", p.Stats().Evictions)
	}
}

func TestEvictionLeafFirst(t *testing.T) {
	p := New(3*16, 16)
	p.Insert(Stream(1, 3))
	// Inserting one new page evicts the deepest (leaf) page of the chain.
	p.Insert(Stream(9, 1))
	if got := p.Match(Stream(1, 3)); got != 2 {
		t.Fatalf("after leaf eviction match = %d, want 2 (prefix intact)", got)
	}
}

// An insert that fills the pool must not evict its own insertion path:
// the kept prefix stays reachable from the root.
func TestInsertKeepsPrefixThatFits(t *testing.T) {
	p := New(3*16, 16)
	if added := p.Insert(Stream(1, 5)); added != 3 {
		t.Fatalf("Insert into a 3-page pool added %d, want 3", added)
	}
	if got := p.Match(Stream(1, 5)); got != 3 {
		t.Fatalf("Match after a truncated insert = %d, want the 3-page prefix", got)
	}
	if p.Used() != 3*16 || p.Stats().Evictions != 0 {
		t.Fatalf("Used = %d, evictions = %d; want 48 and 0", p.Used(), p.Stats().Evictions)
	}
	// The truncated path stays evictable: a later insert takes its room
	// leaf first.
	p = New(3*16, 16)
	p.Insert(Stream(1, 5))
	if added := p.Insert(Stream(2, 2)); added != 2 {
		t.Fatalf("second branch added %d, want 2", added)
	}
	if got := p.Match(Stream(2, 2)); got != 2 {
		t.Fatalf("second branch match = %d, want 2", got)
	}
	if got := p.Match(Stream(1, 5)); got != 1 {
		t.Fatalf("first branch match = %d, want its 1-page prefix", got)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p := New(2*16, 16)
	p.Insert(Stream(1, 2))
	p.Pin(Stream(1, 2), 2)
	if added := p.Insert(Stream(9, 1)); added != 0 {
		t.Fatalf("Insert with fully pinned pool added %d, want 0", added)
	}
	p.Unpin(Stream(1, 2), 2)
	if added := p.Insert(Stream(9, 1)); added != 1 {
		t.Fatalf("Insert after unpin added %d, want 1", added)
	}
}

func TestPinMissingPagesIgnored(t *testing.T) {
	p := New(1000, 16)
	p.Insert(Stream(1, 1))
	p.Pin(Stream(1, 3), 3) // pages 1,2 absent
	p.Unpin(Stream(1, 3), 3)
	if got := p.Match(Stream(1, 1)); got != 1 {
		t.Fatal("pool corrupted by pinning missing pages")
	}
}

func TestReserveRelease(t *testing.T) {
	p := New(100, 16)
	if !p.Reserve(60) {
		t.Fatal("Reserve(60) failed on empty pool")
	}
	if p.Free() != 40 {
		t.Fatalf("Free = %d, want 40", p.Free())
	}
	if p.Reserve(50) {
		t.Fatal("Reserve(50) should fail with 40 free")
	}
	p.Release(60)
	if p.Free() != 100 {
		t.Fatalf("Free after release = %d, want 100", p.Free())
	}
	// Over-release clamps.
	p.Release(1000)
	if p.Reserved() != 0 {
		t.Fatalf("Reserved = %d, want 0", p.Reserved())
	}
}

func TestReserveEvicts(t *testing.T) {
	p := New(4*16, 16)
	p.Insert(Stream(1, 4))
	if !p.Reserve(32) {
		t.Fatal("Reserve should evict cached pages to make room")
	}
	if p.Used() != 2*16 {
		t.Fatalf("Used after evicting reserve = %d, want 32", p.Used())
	}
}

func TestReservePinnedBlocks(t *testing.T) {
	p := New(2*16, 16)
	p.Insert(Stream(1, 2))
	p.Pin(Stream(1, 2), 2)
	if p.Reserve(16) {
		t.Fatal("Reserve should fail when all pages pinned")
	}
}

func TestClear(t *testing.T) {
	p := New(1000, 16)
	p.Insert(Stream(1, 3))
	p.Reserve(100)
	p.Clear()
	if p.Used() != 0 || p.Reserved() != 0 {
		t.Fatalf("after Clear: used=%d reserved=%d", p.Used(), p.Reserved())
	}
	if got := p.Match(Stream(1, 1)); got != 0 {
		t.Fatal("Clear left cached pages")
	}
}

func TestZeroAndNegativeReserve(t *testing.T) {
	p := New(10, 16)
	if !p.Reserve(0) || !p.Reserve(-5) {
		t.Fatal("non-positive reserve should trivially succeed")
	}
}

// Property: Used+Reserved never exceeds Capacity under random operations.
func TestPropertyCapacityInvariant(t *testing.T) {
	f := func(ops []uint32, capRaw uint16) bool {
		capacity := int64(capRaw%64+1) * 16
		p := New(capacity, 16)
		var reserved []int64
		for _, op := range ops {
			switch op % 4 {
			case 0:
				// Sequences branch off eight shared heads.
				n := int(op>>2)%8 + 1
				p.Insert(fork(uint64(op>>2)%8, int(op>>5)%4, uint64(op>>2), n))
			case 1:
				tok := int64(op>>2)%capacity + 1
				if p.Reserve(tok) {
					reserved = append(reserved, tok)
				}
			case 2:
				if len(reserved) > 0 {
					p.Release(reserved[len(reserved)-1])
					reserved = reserved[:len(reserved)-1]
				}
			case 3:
				p.Match(fork(uint64(op>>2)%8, 1, uint64(op>>3), 2))
			}
			if p.Used()+p.Reserved() > p.Capacity() {
				return false
			}
			if p.Free() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Match never reports more pages than were inserted along that
// exact path, and insert-then-match roundtrips.
func TestPropertyInsertMatchRoundtrip(t *testing.T) {
	f := func(head, body uint64, shared, n uint8) bool {
		pages := fork(head, int(shared%41), body, int(n%41))
		p := New(int64(pages.Len()+1)*16, 16)
		p.Insert(pages)
		return p.Match(pages) == pages.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A miniature of the paper's Figure 5: larger pools give monotonically
// better hit rates on a multi-turn trace.
func TestHitRateMonotoneInCapacity(t *testing.T) {
	makeTrace := func() []Seq {
		rng := rand.New(rand.NewPCG(7, 7))
		var trace []Seq
		// 50 sessions, multi-turn with growing shared context: every
		// turn is a longer prefix of its session's stream.
		for s := 0; s < 50; s++ {
			turns := rng.IntN(5) + 2
			ctx := 0
			for turn := 0; turn < turns; turn++ {
				for i := 0; i < rng.IntN(20)+5; i++ {
					ctx++
				}
				trace = append(trace, Stream(uint64(s), ctx))
			}
		}
		// Interleave sessions for realistic access patterns.
		rng.Shuffle(len(trace), func(i, j int) { trace[i], trace[j] = trace[j], trace[i] })
		return trace
	}
	trace := makeTrace()
	var last float64 = -1
	for _, capacity := range []int64{50 * 16, 500 * 16, 5000 * 16, 500000 * 16} {
		p := New(capacity, 16)
		for _, pages := range trace {
			p.MatchTokens(pages, pages.Len()*16)
			p.Insert(pages)
		}
		hr := p.Stats().HitRate()
		if hr < last-0.02 {
			t.Fatalf("hit rate decreased with capacity: %.3f after %.3f", hr, last)
		}
		last = hr
	}
	if last < 0.3 {
		t.Fatalf("large-pool hit rate = %.3f, want ≥0.3 on multi-turn trace", last)
	}
}

func BenchmarkMatchInsert(b *testing.B) {
	p := New(1<<30, 16)
	rng := rand.New(rand.NewPCG(1, 1))
	traces := make([]Seq, 256)
	for i := range traces {
		traces[i] = Stream(uint64(i%32), rng.IntN(200)+10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := traces[i%len(traces)]
		p.MatchTokens(tr, tr.Len()*16)
		p.Insert(tr)
	}
}
