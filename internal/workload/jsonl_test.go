package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"muxwise/internal/sim"
)

func TestJSONLRoundTrip(t *testing.T) {
	orig := ToolAgent(77, 30).WithPoissonArrivals(77, 1)
	var buf bytes.Buffer
	if err := orig.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, "loaded")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("len %d, want %d", got.Len(), orig.Len())
	}
	for i := range orig.Requests {
		a, b := orig.Requests[i], got.Requests[i]
		if a.InputTokens != b.InputTokens || a.OutputTokens != b.OutputTokens ||
			a.ReusedTokens != b.ReusedTokens ||
			a.Session != b.Session || a.Turn != b.Turn {
			t.Fatalf("request %d field mismatch", i)
		}
		// Arrival round-trips through float seconds: sub-µs drift allowed.
		if d := a.Arrival - b.Arrival; d > sim.Microsecond || d < -sim.Microsecond {
			t.Fatalf("request %d arrival drift %v", i, d)
		}
	}
}

// Intra-session prefix reuse must survive the round trip: a loaded
// trace's later turns still extend earlier turns' page sequences.
func TestJSONLPreservesSessionPrefixes(t *testing.T) {
	orig := Conversation(78, 20).WithPoissonArrivals(78, 1)
	var buf bytes.Buffer
	if err := orig.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf, "loaded")
	if err != nil {
		t.Fatal(err)
	}
	last := map[int][]uint64{}
	for _, r := range got.Requests {
		var cur []uint64
		for _, p := range r.Pages.AppendTo(nil) {
			cur = append(cur, uint64(p))
		}
		if prev, ok := last[r.Session]; ok {
			if len(prev) > len(cur) {
				t.Fatalf("session %d context shrank after reload", r.Session)
			}
			for i := range prev {
				if prev[i] != cur[i] {
					t.Fatalf("session %d page %d diverged after reload", r.Session, i)
				}
			}
		}
		last[r.Session] = cur
	}
}

func TestReadJSONLValidation(t *testing.T) {
	cases := []string{
		`{"id":0,"session":0,"input_tokens":0,"output_tokens":5}`,
		`{"id":0,"session":0,"input_tokens":10,"output_tokens":0}`,
		`{"id":0,"session":0,"input_tokens":10,"reused_tokens":10,"output_tokens":5}`,
		`{not json}`,
		// Out-of-bounds numerics: oversized tokens, negative or absurd
		// arrivals. Each must error, not allocate or wrap.
		`{"id":0,"session":0,"input_tokens":2097153,"output_tokens":5}`,
		`{"id":0,"session":0,"input_tokens":10,"output_tokens":2097153}`,
		`{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":-1}`,
		`{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":2e8}`,
		// Duplicate request IDs would panic metrics.Merge in a fleet run.
		`{"id":7,"session":0,"input_tokens":10,"output_tokens":5}` + "\n" +
			`{"id":7,"session":1,"input_tokens":10,"output_tokens":5}`,
	}
	for _, c := range cases {
		if _, err := ReadJSONL(strings.NewReader(c), "bad"); err == nil {
			t.Errorf("ReadJSONL accepted invalid line %q", c)
		}
	}
	// Blank lines are tolerated.
	ok := `{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":1.5}` + "\n\n"
	tr, err := ReadJSONL(strings.NewReader(ok), "ok")
	if err != nil || tr.Len() != 1 {
		t.Fatalf("ReadJSONL valid input: %v, len %d", err, tr.Len())
	}
}

func TestReadJSONLTotalTokenBudget(t *testing.T) {
	// Every line is inside the per-request cap, but stacked up they
	// cross the trace-wide budget — the loader must reject instead of
	// reconstructing page sequences without bound.
	var b strings.Builder
	perLine := 2 * maxJSONLTokens // input + output, both at the cap
	for i := 0; i <= maxJSONLTotalTokens/perLine; i++ {
		fmt.Fprintf(&b, `{"id":%d,"session":%d,"input_tokens":%d,"output_tokens":%d,"arrival_s":%d}`+"\n",
			i, i, maxJSONLTokens, maxJSONLTokens, i)
	}
	if _, err := ReadJSONL(strings.NewReader(b.String()), "budget"); err == nil {
		t.Fatal("ReadJSONL accepted a trace past the total token budget")
	}
}

func TestReadJSONLSortsByArrival(t *testing.T) {
	in := `{"id":1,"session":1,"input_tokens":10,"output_tokens":5,"arrival_s":2}
{"id":0,"session":0,"input_tokens":10,"output_tokens":5,"arrival_s":1}`
	tr, err := ReadJSONL(strings.NewReader(in), "sorted")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Requests[0].Session != 0 {
		t.Fatal("requests not sorted by arrival")
	}
}
