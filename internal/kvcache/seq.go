package kvcache

// FNV-1a 64-bit parameters (hash/fnv). fnvPrime64x7 is fnvPrime64⁷
// mod 2⁶⁴: an FNV-1a round over a zero byte only multiplies, so the six
// zero high bytes of a page index below 2¹⁶, with the multiply of the
// byte before them, fold into one multiply.
const (
	fnvOffset64  = 14695981039346656037
	fnvPrime64   = 1099511628211
	fnvPrime64x7 = 0xc5527b8a51d3d2db
)

// streamState returns the FNV-1a state after a content stream's eight
// little-endian bytes — the part of a page's hash shared by every page
// of the stream.
func streamState(stream uint64) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (stream >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// pageOf finishes a page's hash from its stream's state with the page
// index's eight little-endian bytes.
func pageOf(h, idx uint64) PageID {
	if idx < 1<<16 {
		return PageID(((h^idx&0xff)*fnvPrime64 ^ idx>>8) * fnvPrime64x7)
	}
	for b := 0; b < 8; b++ {
		h ^= (idx >> (8 * b)) & 0xff
		h *= fnvPrime64
	}
	return PageID(h)
}

// Seq names a page sequence without storing it. Page i is page i of the
// Head content stream while i < HeadPages, and page i−HeadPages of the
// Body stream after that; N is the sequence's length. Two sequences
// share a prefix exactly when their leading pages come from the same
// streams at the same indices — a shared system prompt is a common Head,
// a session's turns are prefixes of one Body stream. The zero Seq is
// empty.
type Seq struct {
	Head, Body   uint64
	HeadPages, N int32
}

// Stream returns the first n pages of one content stream.
func Stream(stream uint64, n int) Seq { return Seq{Body: stream, N: int32(n)} }

// Len returns the number of pages in the sequence.
func (s Seq) Len() int { return max(int(s.N), 0) }

// At returns page i, 0 ≤ i < Len().
func (s Seq) At(i int) PageID {
	if hp := max(int(s.HeadPages), 0); i >= hp {
		return pageOf(streamState(s.Body), uint64(i-hp))
	}
	return pageOf(streamState(s.Head), uint64(i))
}

// Prefix returns the first n pages of the sequence (all of it when n
// exceeds Len, none when n is negative).
func (s Seq) Prefix(n int) Seq {
	s.N = int32(min(max(n, 0), s.Len()))
	return s
}

// AppendTo appends the sequence's pages to dst and returns the extended
// slice.
func (s Seq) AppendTo(dst []PageID) []PageID {
	it := s.Iter()
	for pg, ok := it.Next(); ok; pg, ok = it.Next() {
		dst = append(dst, pg)
	}
	return dst
}

// SeqIter yields a Seq's pages in order. Each stream's bytes are hashed
// once, when the iterator is made; each page then costs only its index.
type SeqIter struct {
	head, body   uint64 // stream states
	headPages, n int
	i            int
}

// Iter returns an iterator positioned at the sequence's first page.
func (s Seq) Iter() SeqIter {
	return SeqIter{
		head: streamState(s.Head), body: streamState(s.Body),
		headPages: max(int(s.HeadPages), 0), n: s.Len(),
	}
}

// Next returns the next page, or ok == false past the end.
func (it *SeqIter) Next() (pg PageID, ok bool) {
	i := it.i
	if i >= it.n {
		return 0, false
	}
	it.i++
	if i < it.headPages {
		return pageOf(it.head, uint64(i)), true
	}
	return pageOf(it.body, uint64(i-it.headPages)), true
}
