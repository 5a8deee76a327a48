package main

import (
	"testing"
	"time"
)

// TestNextFitsBudget plays a run's planning with fixed pass durations:
// the mandatory passes come first, the short share stays near
// shortShare, and no optional pass runs past the budget.
func TestNextFitsBudget(t *testing.T) {
	w := &workload{name: "test"}
	const shortD, fullD = time.Second, 9 * time.Second
	for _, budget := range []time.Duration{5 * time.Second, 20 * time.Second, 55 * time.Second} {
		var short, full tally
		var elapsed time.Duration
		var kinds []bool
		for {
			isShort, ok := w.next(budget-elapsed, short, full)
			if !ok {
				break
			}
			kinds = append(kinds, isShort)
			if isShort {
				short.add(shortD)
				elapsed += shortD
			} else {
				full.add(fullD)
				elapsed += fullD
			}
			if len(kinds) > 100 {
				t.Fatalf("budget %v: planning does not stop", budget)
			}
		}
		if len(kinds) < 3 || !kinds[0] || kinds[1] || !kinds[2] {
			t.Fatalf("budget %v: mandatory passes short, full, short not first: %v", budget, kinds)
		}
		if mandatory := 2*shortD + fullD; elapsed > max(budget, mandatory) {
			t.Fatalf("budget %v: passes took %v", budget, elapsed)
		}
		if budget == 55*time.Second {
			if full.n != 4 || elapsed < budget-shortD {
				t.Fatalf("budget %v: %d full passes, %v used", budget, full.n, elapsed)
			}
		}
	}
}
