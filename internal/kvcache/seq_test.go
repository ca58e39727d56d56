package kvcache

import (
	"hash/fnv"
	"slices"
	"testing"
	"unsafe"
)

// refPage is the reference page identity: hash/fnv's FNV-1a over the
// stream's and the index's little-endian bytes.
func refPage(stream uint64, idx int) PageID {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(stream >> (8 * i))
		buf[8+i] = byte(uint64(idx) >> (8 * i))
	}
	h.Write(buf[:])
	return PageID(h.Sum64())
}

var testStreams = []uint64{0, 0xC0FFEE, 0xFEED<<40 | 7, ^uint64(0)}

func TestSeqPagesMatchFNV(t *testing.T) {
	indices := []int{0, 255, 256, 65535, 65536, 1 << 20, 1<<31 - 1}
	for _, s := range testStreams {
		for _, idx := range indices {
			if got, want := Stream(s, idx+1).At(idx), refPage(s, idx); got != want {
				t.Errorf("stream %#x index %d: got %#x, want %#x", s, idx, got, want)
			}
		}
		// A walk crossing the 2^16 fast-path boundary.
		it := Stream(s, 1<<16+8).Iter()
		for i := 0; i < 1<<16+8; i++ {
			pg, ok := it.Next()
			if !ok {
				t.Fatalf("stream %#x: iterator ended at %d", s, i)
			}
			if i >= 1<<16-8 {
				if want := refPage(s, i); pg != want {
					t.Errorf("stream %#x walk index %d: got %#x, want %#x", s, i, pg, want)
				}
			}
		}
		if _, ok := it.Next(); ok {
			t.Fatalf("stream %#x: iterator ran past Len", s)
		}
	}
}

// refSeq materialises a Seq page by page from the reference hash.
func refSeq(s Seq) []PageID {
	var out []PageID
	for i := 0; i < int(s.N); i++ {
		if i < int(s.HeadPages) {
			out = append(out, refPage(s.Head, i))
		} else {
			out = append(out, refPage(s.Body, i-int(s.HeadPages)))
		}
	}
	return out
}

func TestSeqAtAndPrefix(t *testing.T) {
	seqs := []Seq{
		{},
		Stream(0xC0FFEE, 40),
		{Head: 0xC0FFEE, HeadPages: 16, Body: 1<<20 | 3, N: 40},
		{Head: 0xC0FFEE, HeadPages: 16, Body: 1<<20 | 3, N: 10}, // shorter than its head
		{Head: 5, HeadPages: 1 << 16, Body: 6, N: 1<<16 + 5},    // head crosses 2^16
		{Head: 5, HeadPages: 3, Body: 6, N: 1<<16 + 8},          // body crosses 2^16
	}
	for _, s := range seqs {
		want := refSeq(s)
		if s.Len() != len(want) {
			t.Fatalf("%+v: Len = %d, want %d", s, s.Len(), len(want))
		}
		got := s.AppendTo(nil)
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: AppendTo differs from the reference", s)
		}
		for _, i := range []int{0, int(s.HeadPages) - 1, int(s.HeadPages), int(s.HeadPages) + 1,
			1<<16 - 1, 1 << 16, 1<<16 + 1, s.Len() - 1} {
			if i < 0 || i >= s.Len() {
				continue
			}
			if s.At(i) != want[i] {
				t.Fatalf("%+v: At(%d) = %#x, want %#x", s, i, s.At(i), want[i])
			}
		}
		for _, n := range []int{-1, 0, 1, int(s.HeadPages) - 1, int(s.HeadPages), int(s.HeadPages) + 1,
			1 << 16, 1<<16 + 1, s.Len(), s.Len() + 7} {
			p := s.Prefix(n)
			wantN := min(max(n, 0), s.Len())
			if p.Len() != wantN {
				t.Fatalf("%+v: Prefix(%d).Len = %d, want %d", s, n, p.Len(), wantN)
			}
			if !slices.Equal(p.AppendTo(nil), want[:wantN]) {
				t.Fatalf("%+v: Prefix(%d) is not a prefix of the sequence", s, n)
			}
		}
	}
	// AppendTo extends dst in place of copying it.
	dst := []PageID{7}
	if got := Stream(1, 2).AppendTo(dst); len(got) != 3 || got[0] != 7 || got[1] != refPage(1, 0) {
		t.Fatalf("AppendTo(dst) = %v", got)
	}
}

func TestSeqIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(Seq{}); n != 24 {
		t.Fatalf("Seq is %d bytes, want 24", n)
	}
}

func TestSeqWalksDoNotAllocate(t *testing.T) {
	p := New(1<<20, DefaultPageTokens)
	s := Seq{Head: 1, HeadPages: 4, Body: 2, N: 64}
	p.Insert(s)
	if n := testing.AllocsPerRun(100, func() {
		p.Match(s)
		p.Peek(s)
		p.Pin(s, 10)
		p.Unpin(s, 10)
		p.Insert(s)
	}); n != 0 {
		t.Fatalf("walking a Seq allocated %.1f times per run", n)
	}
}
