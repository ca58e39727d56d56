package workload

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"muxwise/internal/kvcache"
)

// refPageID is the reference page identity every generator must
// reproduce: hash/fnv's FNV-1a over the stream's and the index's
// little-endian bytes.
func refPageID(stream uint64, idx int) kvcache.PageID {
	h := fnv.New64a()
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(stream >> (8 * i))
		buf[8+i] = byte(uint64(idx) >> (8 * i))
	}
	h.Write(buf[:])
	return kvcache.PageID(h.Sum64())
}

// refStreamPages returns pages [from, to) of a content stream, one
// reference hash per page.
func refStreamPages(stream uint64, from, to int) []kvcache.PageID {
	out := make([]kvcache.PageID, 0, to-from)
	for i := from; i < to; i++ {
		out = append(out, refPageID(stream, i))
	}
	return out
}

// refRequestPages materialises one request's pages the way every
// generator used to, per request: sysPages pages of the shared system
// prompt stream, then the request's own stream from index 0. With no
// system prompt this is the multi-turn and JSONL layout.
func refRequestPages(sysPages int, stream uint64, input, output int) (pages, all []kvcache.PageID) {
	in := kvcache.PageCount(input, PageTokens)
	pages = append(refStreamPages(0xC0FFEE, 0, sysPages), refStreamPages(stream, 0, in-sysPages)...)
	all = append(append([]kvcache.PageID{}, pages...),
		refStreamPages(stream, in-sysPages, kvcache.PageCount(input+output, PageTokens)-sysPages)...)
	return pages, all
}

// checkTracePages asserts every request's materialised pages equal the
// reference element for element, that Pages is AllPages' prefix over
// the input, and that writing into a materialised copy leaves every
// request's pages intact.
func checkTracePages(t *testing.T, tr *Trace, sysPages int, stream func(*Request) uint64) {
	t.Helper()
	if tr.Len() == 0 {
		t.Fatalf("%s: empty trace", tr.Name)
	}
	check := func(stage string) {
		t.Helper()
		for _, r := range tr.Requests {
			pages, all := refRequestPages(sysPages, stream(r), r.InputTokens, r.OutputTokens)
			if !slices.Equal(r.Pages.AppendTo(nil), pages) || !slices.Equal(r.AllPages.AppendTo(nil), all) {
				t.Fatalf("%s %s: request %d (session %d turn %d) pages differ from the reference",
					tr.Name, stage, r.ID, r.Session, r.Turn)
			}
			if r.Pages != r.AllPages.Prefix(kvcache.PageCount(r.InputTokens, PageTokens)) {
				t.Fatalf("%s: request %d Pages %+v is not the input prefix of AllPages %+v",
					tr.Name, r.ID, r.Pages, r.AllPages)
			}
		}
	}
	check("as generated")
	for _, r := range tr.Requests {
		all := r.AllPages.AppendTo(nil)
		for i := range all {
			all[i] = 0xBAD
		}
	}
	check("after writes to materialised copies")
}

func TestGeneratorPagesMatchReference(t *testing.T) {
	openThoughtsSys := kvcache.PageCount(243, PageTokens)
	for _, seed := range []uint64{1, 2, 60013} {
		single := func(r *Request) uint64 { return seed<<20 | uint64(r.Session) }
		multi := func(r *Request) uint64 { return seed<<22 | uint64(r.Session) }
		jsonl := func(r *Request) uint64 { return 0xFEED<<40 | uint64(r.Session) }
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkTracePages(t, ShareGPT(seed, 200), 0, single)
			checkTracePages(t, LooGLE(seed, 20), 0, single)
			checkTracePages(t, OpenThoughts(seed, 100), openThoughtsSys, single)
			checkTracePages(t, Conversation(seed, 80), 0, multi)
			checkTracePages(t, ToolAgent(seed, 80), 0, multi)

			// The Fig. 13 bursty mix, composed as muxwise.MixedBursty does:
			// profile arrivals truncate each trace, then Mix offsets the
			// Tool&Agent sessions past the Conversation ones.
			conv := Conversation(seed, 60).WithProfileArrivals(seed, ConversationProfile(0.4))
			tool := ToolAgent(seed+1, 60).WithProfileArrivals(seed+1, ToolAgentProfile(0.4))
			offset := 0
			for _, r := range conv.Requests {
				offset = max(offset, r.Session+1)
			}
			mixed := Mix("Conversation+Tool&Agent", conv, tool)
			checkTracePages(t, mixed, 0, func(r *Request) uint64 {
				if r.Dataset == "Conversation" {
					return seed<<22 | uint64(r.Session)
				}
				return (seed+1)<<22 | uint64(r.Session-offset)
			})

			var buf bytes.Buffer
			if err := mixed.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadJSONL(&buf, "loaded")
			if err != nil {
				t.Fatal(err)
			}
			checkTracePages(t, loaded, 0, jsonl)
		})
	}
}
