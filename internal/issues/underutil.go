package issues

import (
	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Underutilization summarizes the §II-R2 issue class the paper lists beside
// bottlenecks and imbalance: periods where the application has work in
// flight yet fails to push any resource anywhere near its capacity —
// typically a symptom of insufficient parallelism, lock convoys, or
// overly conservative configuration.
type Underutilization struct {
	// Threshold is the utilization fraction below which a slice counts as
	// underutilized.
	Threshold float64
	// Slices lists the underutilized timeslice indices: at least one leaf
	// phase active, yet every consumable resource instance below Threshold.
	Slices []int
	// Time is the summed duration of those slices.
	Time vtime.Duration
	// Fraction is Time over the profiled span.
	Fraction float64
}

// DetectUnderutilization scans the profile for slices where work was active
// but no consumable resource exceeded threshold·capacity. A threshold ≤ 0
// defaults to 0.5.
func DetectUnderutilization(prof *attribution.Profile, threshold float64) Underutilization {
	return detectUnderutilization(prof, prof.Trace.Leaves(), threshold)
}

// detectUnderutilization is DetectUnderutilization over the trace's leaves.
// One sweep over the leaves marks the active slices: each leaf checks only
// the slices its span overlaps that no earlier leaf has marked yet.
func detectUnderutilization(prof *attribution.Profile, leaves []*core.Phase, threshold float64) Underutilization {
	if threshold <= 0 {
		threshold = 0.5
	}
	u := Underutilization{Threshold: threshold}
	slices := prof.Slices
	active := make([]bool, slices.Count)
	for _, leaf := range leaves {
		first, last := slices.Range(leaf.Start, leaf.End)
		for k := first; k < last; k++ {
			if !active[k] {
				t0, t1 := slices.Bounds(k)
				active[k] = leaf.ActiveTime(t0, t1) > 0
			}
		}
	}
	var span vtime.Duration
	for k := 0; k < slices.Count; k++ {
		t0, t1 := slices.Bounds(k)
		span += t1.Sub(t0)
		if !active[k] {
			continue
		}
		busy := false
		for _, ip := range prof.Instances {
			if ip.Consumption[k] >= threshold*ip.Instance.Resource.Capacity {
				busy = true
				break
			}
		}
		if !busy {
			u.Slices = append(u.Slices, k)
			u.Time += t1.Sub(t0)
		}
	}
	if span > 0 {
		u.Fraction = u.Time.Seconds() / span.Seconds()
	}
	return u
}
