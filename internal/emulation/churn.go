package emulation

import (
	"slices"
	"sort"

	"nwids/internal/controller"
	"nwids/internal/shim"
)

// classLog is what RunDrift's churn accounting keeps of a walked session:
// its trace position and hash fraction, filed under its dense class index
// src·nPoP+dst, each class in position order. A reconfiguration's churn is
// measured over the sessions from the position it was proposed at, so the
// log answers it class by class without the trace.
type classLog struct {
	nPoP int
	pos  [][]int32
	hash [][]float64
}

func newClassLog(nPoP int) *classLog {
	return &classLog{nPoP: nPoP, pos: make([][]int32, nPoP*nPoP), hash: make([][]float64, nPoP*nPoP)}
}

// add files the session at trace position position; positions must arrive
// in ascending order.
func (l *classLog) add(class, position int, h float64) {
	l.pos[class] = append(l.pos[class], int32(position))
	l.hash[class] = append(l.hash[class], h)
}

// churn measures one reconfiguration from oldParts to newParts over the
// sessions at positions ≥ injected. remaining counts them; moved counts
// those whose owning node changes (a session with no old owner never
// counts, one with no new owner always does, so a class absent from
// newParts moves whole); expected sums each class's hash-measure churn
// weighted by its remaining sessions, in ascending class index — the
// (SrcPoP, DstPoP) order, which fixes the float summation order. A class
// whose partition is unchanged moves nothing and adds nothing, so neither
// loop runs for it.
func (l *classLog) churn(injected int, oldParts, newParts map[shim.ClassKey][]shim.OwnedRange) (moved, remaining int, expected float64) {
	for class, pos := range l.pos {
		from := sort.Search(len(pos), func(i int) bool { return int(pos[i]) >= injected })
		n := len(pos) - from
		if n == 0 {
			continue
		}
		remaining += n
		key := shim.ClassKey{SrcPoP: uint8(class / l.nPoP), DstPoP: uint8(class % l.nPoP)}
		old, next := oldParts[key], newParts[key]
		if slices.Equal(old, next) {
			continue
		}
		for _, h := range l.hash[class][from:] {
			if o := rangeOwner(old, h); o >= 0 && o != rangeOwner(next, h) {
				moved++
			}
		}
		expected += controller.OwnerChurn(old, next) * float64(n)
	}
	return moved, remaining, expected
}

// rangeOwner resolves which node hash fraction h lands on within one
// class's partition, or -1 when no range holds it.
func rangeOwner(ranges []shim.OwnedRange, h float64) int {
	for _, r := range ranges {
		if h >= r.Lo && h < r.Hi {
			return r.Node
		}
	}
	return -1
}
