package core

// Clone returns a deep copy of the result: mutating the copy (or anything
// reachable from it, such as violation steps) never affects
// the original. Result stores (internal/store) hand out clones so that a
// cache hit shared between callers cannot be corrupted by one of them;
// every other consumer may clone freely, the copy is a handful of small
// allocations.
//
// A nil receiver clones to nil.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	out := *r // Verdict and Stats are flat values
	out.Violation = r.Violation.clone()
	return &out
}

func (v *Violation) clone() *Violation {
	if v == nil {
		return nil
	}
	out := *v
	out.Prefix = cloneSteps(v.Prefix)
	out.Cycle = cloneSteps(v.Cycle)
	return &out
}

// cloneSteps copies a step slice; Step is a flat value type, so a slice
// copy severs all sharing. Nil stays nil so round-trip equality checks
// (reflect.DeepEqual) see the original shape.
func cloneSteps(in []Step) []Step {
	if in == nil {
		return nil
	}
	out := make([]Step, len(in))
	copy(out, in)
	return out
}
