package datalog

import "testing"

// The remaining canonical programs of internal/core/programs.go, copied
// as seeds: datalog cannot import core. reachableNDlog and
// reachableSeNDlog (parser_test.go) are the other two.
const (
	bestPathSeed = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3,4)).
materialize(spCost, infinity, infinity, keys(1,2)).
materialize(bestPath, infinity, infinity, keys(1,2)).
aggSelection(path, keys(1,2), min, 5).

sp1 path(@S,D,D,P,C) :- link(@S,D,C), P = f_init(S,D).
sp2 path(@S,D,Z,P,C) :- link(@S,Z,C1), path(@Z,D,W,P2,C2), C = C1 + C2,
    f_member(P2,S) == 0, P = f_concat(S,P2).
sp3 spCost(@S,D,min<C>) :- path(@S,D,Z,P,C).
sp4 bestPath(@S,D,P,C) :- spCost(@S,D,C), path(@S,D,Z,P,C).
`
	distanceVectorSeed = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(dv, infinity, infinity, keys(1,2,3)).
materialize(dvCost, infinity, infinity, keys(1,2)).
aggSelection(dv, keys(1,2), min, 4).

dv1 dv(@S,D,D,C) :- link(@S,D,C).
dv2 dv(@S,D,Z,C) :- link(@S,Z,C1), dvCost(@Z,D,C2), C = C1 + C2.
dv3 dvCost(@S,D,min<C>) :- dv(@S,D,Z,C).
`
	pathVectorSeed = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(route, infinity, infinity, keys(1,2,3)).
materialize(bestRoute, infinity, infinity, keys(1,2)).
aggSelection(route, keys(1,2), min, 4).

pv1 route(@S,D,P,C) :- link(@S,D,C), P = f_init(S,D).
pv2 route(@S,D,P,C) :- link(@S,Z,C1), bestRoute(@Z,D,P2,C2),
    f_member(P2,S) == 0, C = C1 + C2, P = f_concat(S,P2).
pv3 rCost(@S,D,min<C>) :- route(@S,D,P,C).
pv4 bestRoute(@S,D,P,C) :- rCost(@S,D,C), route(@S,D,P,C).
`
)

// frontEnd runs src through the stages a network is built with —
// Parse, then Validate, then Localize — and returns the first error.
func frontEnd(src string) error {
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	if err := Validate(prog); err != nil {
		return err
	}
	_, err = Localize(prog)
	return err
}

// FuzzParse drives arbitrary program text through the front end and
// requires every stage to reject bad input with an error, never a
// panic. Each seed must make it through all three stages.
func FuzzParse(f *testing.F) {
	for _, src := range []string{reachableNDlog, reachableSeNDlog, bestPathSeed, distanceVectorSeed, pathVectorSeed} {
		if err := frontEnd(src); err != nil {
			f.Fatalf("seed program rejected: %v\n%s", err, src)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_ = frontEnd(src)
	})
}
