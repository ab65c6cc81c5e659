package main

import (
	"sort"
	"testing"
	"time"

	"rhnorec"
	"rhnorec/internal/tm"
)

// TestPlantedSlowdownIsDetected doubles the software-access cost through
// the public rhnorec.SetSoftwareAccessCost. Only instrumented slow-path
// accesses pay it, so tm-bank-audit's audits (which always fall back) must
// get slower by more than read_p99_us's bound, and tm-rbtree (which stays
// on the hardware fast path) must stay within every latency and throughput
// bound. Runs alternate base and slowed so drift hits both sides.
func TestPlantedSlowdownIsDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tm workloads for about three minutes")
	}
	spec := loadSpec(t)
	bound := map[string]float64{}
	higher := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bound[m.Name] = m.Bound
		higher[m.Name] = m.Better == "higher"
	}
	base := tm.SoftwareAccessCost()
	defer rhnorec.SetSoftwareAccessCost(base)

	const reps = 3
	runAt := func(name string, cost int) map[string]float64 {
		rhnorec.SetSoftwareAccessCost(cost)
		res, err := run(name, workloads[name], 1, 10*time.Second, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s at cost %d: %v", name, cost, err)
		}
		v := map[string]float64{}
		for k, m := range res.Metrics {
			v[k] = m.Value
		}
		return v
	}
	medians := func(name string) (baseMed, slowMed map[string]float64) {
		var b, s []map[string]float64
		for i := 0; i < reps; i++ {
			b = append(b, runAt(name, base))
			s = append(s, runAt(name, 2*base))
		}
		return medianOf(b), medianOf(s)
	}
	// worse is how much slower the slowed side reads, as a share of base.
	worse := func(metric string, b, s map[string]float64) float64 {
		if higher[metric] {
			return (b[metric] - s[metric]) / b[metric]
		}
		return (s[metric] - b[metric]) / b[metric]
	}

	b, s := medians("tm-bank-audit")
	t.Logf("tm-bank-audit read_p99_us %.0f -> %.0f us", b["read_p99_us"], s["read_p99_us"])
	if w := worse("read_p99_us", b, s); w <= bound["read_p99_us"] {
		t.Errorf("tm-bank-audit read_p99_us %.0f -> %.0f us (%+.1f%%): not outside its %.0f%% bound",
			b["read_p99_us"], s["read_p99_us"], 100*w, 100*bound["read_p99_us"])
	}
	b, s = medians("tm-rbtree")
	for _, metric := range []string{"ops_per_s", "read_p50_us", "read_p99_us", "write_p50_us", "write_p99_us"} {
		t.Logf("tm-rbtree %s %.4g -> %.4g", metric, b[metric], s[metric])
		if w := worse(metric, b, s); w > bound[metric] {
			t.Errorf("tm-rbtree %s %.4g -> %.4g (%+.1f%% worse): outside its %.0f%% bound",
				metric, b[metric], s[metric], 100*w, 100*bound[metric])
		}
	}
}

func medianOf(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k := range runs[0] {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = r[k]
		}
		sort.Float64s(v)
		out[k] = v[len(v)/2]
	}
	return out
}
