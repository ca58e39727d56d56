package main

import (
	"fmt"

	"muxwise"
	"muxwise/internal/cluster"
	"muxwise/internal/kvcache"
)

// pickRec is one placement the timing router saw: the request's session
// and turn and the replica that got it.
type pickRec struct{ session, turn, replica int }

// routeLog is what the traced run's timing wrappers report into.
type routeLog struct {
	log   *spanLog
	picks []pickRec
}

// sessionHitFrac is the share of later turns (turn > 0) placed on the
// replica that served the session's previous turn; 0 with no later turns.
func (p *routeLog) sessionHitFrac() float64 {
	last := map[int]int{}
	later, hits := 0, 0
	for _, pk := range p.picks {
		if prev, ok := last[pk.session]; ok && pk.turn > 0 {
			later++
			if prev == pk.replica {
				hits++
			}
		}
		last[pk.session] = pk.replica
	}
	if later == 0 {
		return 0
	}
	return float64(hits) / float64(later)
}

// timingRouter times every Pick of the router it wraps and forwards each
// optional observer interface. The cluster discovers those interfaces by
// type assertion, so a wrapper that dropped one would silently change
// placement; the traced run's equality check with the untraced run
// catches that. Forwarding to a policy that lacks an interface is a
// no-op, which leaves placement unchanged.
type timingRouter struct {
	inner muxwise.Router
	p     *routeLog
}

var (
	_ muxwise.FleetObserver     = (*timingRouter)(nil)
	_ muxwise.TTFTObserver      = (*timingRouter)(nil)
	_ muxwise.MigrationObserver = (*timingRouter)(nil)
	_ muxwise.TTFTTargeted      = (*timingScaler)(nil)
)

// Name reports the wrapped policy's name, so summaries stay identical.
func (t *timingRouter) Name() string { return t.inner.Name() }

// Pick times the wrapped router's placement of r.
func (t *timingRouter) Pick(r *muxwise.Request, view muxwise.FleetView) *muxwise.FleetReplica {
	id := t.p.log.begin("epp", "pick", r.ID)
	rep := t.inner.Pick(r, view)
	t.p.log.end(id)
	placed := rep
	if placed == nil && len(view.Candidates) > 0 {
		placed = view.Candidates[0] // the cluster's own fallback
	}
	if placed != nil {
		t.p.picks = append(t.p.picks, pickRec{session: r.Session, turn: r.Turn, replica: placed.ID})
	}
	return rep
}

// ReplicaDown forwards FleetObserver.
func (t *timingRouter) ReplicaDown(id int) {
	if o, ok := t.inner.(muxwise.FleetObserver); ok {
		o.ReplicaDown(id)
	}
}

// ObserveTTFT forwards TTFTObserver.
func (t *timingRouter) ObserveTTFT(replica int, ttft muxwise.Time) {
	if o, ok := t.inner.(muxwise.TTFTObserver); ok {
		o.ObserveTTFT(replica, ttft)
	}
}

// SessionMigrated forwards MigrationObserver.
func (t *timingRouter) SessionMigrated(session, from, to int, pages []kvcache.PageID) {
	if o, ok := t.inner.(muxwise.MigrationObserver); ok {
		o.SessionMigrated(session, from, to, pages)
	}
}

// timingScaler times every Decide of the autoscaler it wraps and
// forwards TTFTTargeted.
type timingScaler struct {
	inner muxwise.Autoscaler
	p     *routeLog
}

// Name reports the wrapped autoscaler's name.
func (t *timingScaler) Name() string { return t.inner.Name() }

// Decide times the wrapped autoscaler's decision.
func (t *timingScaler) Decide(s muxwise.FleetSnapshot) int {
	id := t.p.log.begin("cluster", "autoscale", -1)
	d := t.inner.Decide(s)
	t.p.log.end(id)
	return d
}

// WithTarget forwards TTFTTargeted, keeping the timing around the
// retargeted autoscaler.
func (t *timingScaler) WithTarget(target muxwise.Time) muxwise.Autoscaler {
	if tt, ok := t.inner.(muxwise.TTFTTargeted); ok {
		return &timingScaler{inner: tt.WithTarget(target), p: t.p}
	}
	return t
}

// registerTiming registers timing wrappers around the named router and
// autoscaler and returns the names they were registered under. A
// process registers them once.
func registerTiming(routerName, scalerName string, p *routeLog) (string, string, error) {
	policy, err := cluster.ResolvePolicy(routerName)
	if err != nil {
		return "", "", err
	}
	mk, ok := cluster.Scalers()[scalerName]
	if !ok {
		return "", "", fmt.Errorf("unknown autoscaler %q", scalerName)
	}
	rname, sname := "timed-"+routerName, "timed-"+scalerName
	if err := muxwise.RegisterRouter(rname, func() muxwise.Router {
		return &timingRouter{inner: policy(), p: p}
	}); err != nil {
		return "", "", err
	}
	if err := muxwise.RegisterAutoscaler(sname, func() muxwise.Autoscaler {
		return &timingScaler{inner: mk(), p: p}
	}); err != nil {
		return "", "", err
	}
	return rname, sname, nil
}
