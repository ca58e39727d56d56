package main

import (
	"errors"
	"math"
)

// bisectSteps is how many halvings of the (log-scale) bracket the
// goodput search makes after checking its floor: five halvings of a 2×
// bracket resolve the knee to about 2%.
const bisectSteps = 5

// sloTarget is the share of requests sent that must meet both TTFT and
// TBT for a load to count as feasible.
const sloTarget = 0.99

var errFloorInfeasible = errors.New("goodput search: the bracket's floor already misses the SLO")

// bisect returns the highest load in [lo, hi] that feasible accepts,
// assuming feasibility only ever flips from true to false as load grows.
// The probes run one after another. It checks lo first and then halves
// the bracket steps times in log scale, so the answer is a load that was
// actually probed and met the target; count is the number of probes.
func bisect(feasible func(load float64) (bool, error), lo, hi float64, steps int) (best float64, count int, err error) {
	ok, err := feasible(lo)
	count++
	if err != nil {
		return 0, count, err
	}
	if !ok {
		return 0, count, errFloorInfeasible
	}
	best = lo
	for i := 0; i < steps; i++ {
		mid := math.Sqrt(lo * hi)
		ok, err := feasible(mid)
		count++
		if err != nil {
			return 0, count, err
		}
		if ok {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best, count, nil
}
