package propagation

import (
	"fmt"
	"slices"
)

// CheckConsumers compares the indexed consumers lookup with the linear
// scan it replaced, for every executed writer the tracer recorded. It
// returns the number of writers checked and the first disagreement.
func (t *Tracer) CheckConsumers() (writers int, err error) {
	a := t.build()
	for i := range t.nodes {
		n := &t.nodes[i]
		if !n.executed || n.physDest < 0 {
			continue
		}
		writers++
		got, want := a.consumers(n.physDest, i), a.scanConsumers(n.physDest, i)
		if !slices.Equal(got, want) {
			return writers, fmt.Errorf("writer %d of p%d: consumers %v, linear scan %v", i, n.physDest, got, want)
		}
	}
	return writers, nil
}

// scanConsumers is the reference lookup: find the writer's position by
// scanning regWrites, then walk regReads from the start.
func (a *analysis) scanConsumers(phys int32, wi int) []int {
	writers := a.regWrites[phys]
	pos := slices.Index(writers, wi)
	if pos < 0 {
		return nil
	}
	w := &a.t.nodes[wi]
	limit := ^uint64(0)
	if pos+1 < len(writers) {
		limit = a.t.nodes[writers[pos+1]].ready
	}
	var out []int
	for _, ri := range a.regReads[phys] {
		r := &a.t.nodes[ri]
		if r.issueAt < w.ready {
			continue
		}
		if r.issueAt >= limit {
			break
		}
		out = append(out, ri)
	}
	return out
}
