package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed call the traced run made into a layer's public
// functions. Spans nest: parent is the index of the span that was open
// when this one began, -1 at the top.
type span struct {
	layer, name string
	parent      int
	req         int // request ID for router picks, -1 otherwise
	start, end  time.Duration
}

// spanLog keeps the traced run's spans in memory until the run ends.
// The simulator calls back into the benchmark (router picks, autoscaler
// decisions) only on the goroutine that called Experiment.Run, so one
// open-span stack suffices. A nil *spanLog records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
	open  []int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (l *spanLog) begin(layer, name string, req int) int {
	if l == nil {
		return -1
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{layer: layer, name: name, parent: parent, req: req, start: time.Since(l.t0)})
	id := len(l.spans) - 1
	l.open = append(l.open, id)
	return id
}

// end closes the span begin returned; spans must close innermost first.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	l.spans[id].end = time.Since(l.t0)
	l.open = l.open[:len(l.open)-1]
}

// durations returns the lengths of every span with the given layer and
// name.
func (l *spanLog) durations(layer, name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.layer == layer && s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// layerTime is one row of the self-time table.
type layerTime struct {
	layer       string
	spans       int
	total, self time.Duration
}

// selfTimes sums each layer's span time and self time: a span's
// duration minus the part of it its child spans cover. Rows are sorted
// by self time, largest first.
func (l *spanLog) selfTimes() []layerTime {
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	rows := map[string]*layerTime{}
	var order []string
	for i, s := range l.spans {
		r := rows[s.layer]
		if r == nil {
			r = &layerTime{layer: s.layer}
			rows[s.layer] = r
			order = append(order, s.layer)
		}
		r.spans++
		d := s.end - s.start
		if s.parent < 0 || l.spans[s.parent].layer != s.layer {
			r.total += d // nested spans of one layer count once
		}
		r.self += d - child[i]
	}
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *rows[name])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// events, microsecond timestamps), one named track per layer.
func (l *spanLog) writeChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"traceEvents\":[")
	tids := map[string]int{}
	for i, s := range l.spans {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		tid, ok := tids[s.layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.layer] = tid
			fmt.Fprintf(bw, "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%q}},",
				tid, s.layer)
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f",
			s.name, s.layer, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3)
		if s.req >= 0 {
			fmt.Fprintf(bw, ",\"args\":{\"req\":%d}", s.req)
		}
		fmt.Fprint(bw, "}")
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
