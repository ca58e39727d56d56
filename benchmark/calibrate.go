package main

import (
	"runtime"
	"time"
)

// Host times are scaled to a reference speed. On a shared machine the
// neighbours' load can make the replay take twice as long for minutes at
// a time, in user CPU time as much as in wall time. Each timed section is
// therefore bracketed by passes of calibrate, a fixed piece of work of
// the simulator's kind that calls no muxwise code, and its CPU time is
// multiplied by calRef over the mean CPU time of the passes around it: a
// change to the program moves the section and not the calibration, and a
// slower host moves both. Both, but not always by the same factor, which
// is why only setup_s carries a bound (see host_replay_time in
// ledger.json).

// calRef is nominal: scaled times read as CPU seconds on a machine on
// which one calibrate pass takes calRef of CPU time. On the 2-vCPU Intel
// Xeon VM the bounds were set on, a pass took 0.36-0.55 s while the
// neighbours' load doubled the replay's time.
const calRef = 200 * time.Millisecond

const (
	calNodes = 250_000 // records built per pass
	calLists = 1024    // lists the records are chained into
	calSteps = 400_000 // random visits per pass
)

// calNode is one record of the calibration's heap, the way a simulated
// request carries a link, an identifier and a growing list of samples.
type calNode struct {
	next    *calNode
	samples []float64
	key     int
}

// calibrate runs one pass: it builds calNodes records chained into lists
// and indexed by a hash map, visits random records through the map and
// follows their links, appending a sample to each and to a pass-long
// series, and collects with the records still live. Allocation, pointer
// chasing over tens of megabytes and marking make it the same kind of
// work as a replay, and a slow memory system slows both alike. It
// returns a checksum that depends on every visit, which the caller keeps
// so the work cannot be optimised away.
func calibrate() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	index := make(map[int]*calNode, calNodes)
	heads := make([]*calNode, calLists)
	for i := 0; i < calNodes; i++ {
		n := &calNode{key: i, samples: make([]float64, 0, 4)}
		h := next() % calLists
		n.next, heads[h] = heads[h], n
		index[i] = n
	}
	var sum float64
	series := make([]float64, 0, 1024)
	for i := 0; i < calSteps; i++ {
		r := next()
		n := index[int(r%calNodes)]
		for k := 0; k < 3 && n != nil; k++ {
			n.samples = append(n.samples, float64(r&0xffff))
			sum += n.samples[0] + float64(n.key)
			n = n.next
		}
		series = append(series, sum)
	}
	runtime.GC()
	return sum + series[len(series)/2] + float64(len(index)+len(heads))
}

// calSink keeps the calibration checksums alive.
var calSink float64

// speedProbe converts the CPU time of timed sections to the reference
// speed. Each section is bracketed by calibration passes, which it shares
// with its neighbours.
type speedProbe struct {
	prev   time.Duration // CPU time of the last calibration pass
	passes []float64     // every pass, in seconds, for the report
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{}
	p.prev = p.pass()
	return p
}

// pass runs one calibration pass from a collected heap on timedProcs Ps
// and returns its CPU time.
func (p *speedProbe) pass() time.Duration {
	runtime.GC()
	_, c := timed(func() { calSink += calibrate() })
	p.passes = append(p.passes, c.Seconds())
	return c
}

// scale takes the calibration pass that closes the sections timed since
// the last one and returns the factor that converts their CPU time to
// the reference speed.
func (p *speedProbe) scale() float64 {
	next := p.pass()
	f := calRef.Seconds() / ((p.prev + next).Seconds() / 2)
	p.prev = next
	return f
}
