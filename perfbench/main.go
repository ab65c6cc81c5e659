// Command perfbench is the repository's benchmark: it times calls into the
// rh-norec library, the KV service and its persistence plane from outside,
// on one of four closed-loop workloads, checks every workload's output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as the last line of standard output. README.md gives each workload's
// reason and the layer map.
//
//	perfbench -workload tm-rbtree -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one set-up workload.
type instance interface {
	// step returns worker i's loop body: one or more ops, each recorded
	// into the tally. An error is a harness failure (a dead connection),
	// not a failed op.
	step(i int) func(*tally) error
	// setTraced attaches or detaches the recorders of benchmark-owned
	// threads.
	setTraced(on bool)
	counters() layerCounters
	// check is the end-of-run output oracle, run after the workers stop.
	// It records its own calls into a layer in spans (nil: untraced).
	check(spans *spanLog) error
	close()
}

var workloads = map[string]func(seed int64, workers int, dataDir string) (instance, error){
	"tm-rbtree":     setupRBTree,
	"tm-bank-audit": setupBank,
	"kv-mem":        setupKVMem,
	"kv-durable":    setupKVDurable,
}

// endToEnd lists the untraced run's metrics. A "read" is a read-only op
// (a RunReadOnly transaction, a get or a scan), a "write" any op that
// writes. ops_per_s and the latency quantiles are medians over the run's
// measurement windows (see measure).
var endToEnd = []layerMetric{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"mem_peak_mb", "MB"},
	{"setup_s", "s"},
}

// setups is how many times a run sets its workload up; setup_s is their
// median and the last one is measured.
const setups = 21

// minSamples is the fewest latency samples per class that give p99 ten
// samples beyond it; every measurement window needs them.
const minSamples = 1000

// slice is the unit an untraced measurement is cut into.
const slice = time.Second

// warmUp runs before every measurement, after the set-ups.
const warmUp = time.Second

func main() {
	name := flag.String("workload", "", "tm-rbtree, tm-bank-audit, kv-mem or kv-durable")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for data directories and trace files")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	out, err := run(*name, setup, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work)
	if out != nil {
		b, _ := json.Marshal(out)
		fmt.Println(string(b))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// segment runs every worker's step in a closed loop for d and returns the
// merged tally and the elapsed seconds. logs, when non-nil, are the
// workers' span logs, parented to a new segment span kept in root.
func segment(steps []func(*tally) error, d time.Duration, logs []*spanLog, root *spanLog) (*tally, float64, error) {
	segID := root.newID()
	tallies := make([]*tally, len(steps))
	errs := make([]error, len(steps))
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := now()
	for i, step := range steps {
		tallies[i] = &tally{}
		if logs != nil {
			tallies[i].spans = logs[i]
			logs[i].setParent(segID)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := step(tallies[i]); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	end := now()
	root.addAs(segID, spanSegment, start, end)
	for _, t := range tallies[1:] {
		tallies[0].merge(t)
	}
	return tallies[0], float64(end-start) / 1e9, errors.Join(errs...)
}

func run(name string, setup func(int64, int, string) (instance, error), seed int64, d time.Duration, traced bool, work string) (*result, error) {
	workers := runtime.NumCPU()
	dataDir := filepath.Join(work, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	host, err := probeHost(dataDir)
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	var root *spanLog
	var logs []*spanLog
	if traced {
		root = newSpanLog(-1)
		for i := 0; i < workers; i++ {
			logs = append(logs, newSpanLog(i))
		}
	}
	runID := root.newID()
	root.setParent(runID)
	runStart := now()

	var inst instance
	setupNS := make([]float64, setups)
	for i := range setupNS {
		if inst != nil {
			inst.close()
			inst = nil
			// Hand the closed set-up's memory back to the OS, so that
			// mem_peak_mb is one set-up's peak, not the sum of several.
			debug.FreeOSMemory()
		}
		start := now()
		if inst, err = setup(seed, workers, dataDir); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		end := now()
		root.add(spanSetup, start, end)
		setupNS[i] = float64(end - start)
	}
	defer inst.close()
	steps := make([]func(*tally) error, workers)
	for i := range steps {
		steps[i] = inst.step(i)
	}

	// Let caches fill and the tree or key space reach its steady mix
	// before timing.
	if _, _, err := segment(steps, warmUp, nil, nil); err != nil {
		return nil, err
	}

	var (
		all     tally
		metrics = map[string]metric{}
		samples = map[string]uint64{}
	)
	if !traced {
		values, minWindow, err := measure(steps, d, &all)
		if err != nil {
			return nil, err
		}
		values["setup_s"] = median(setupNS) / 1e9
		if values["mem_peak_mb"], err = peakRSSMB(); err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		for _, m := range endToEnd {
			metrics[m.name] = metric{values[m.name], m.unit}
		}
		samples["min_per_window"] = minWindow
	} else {
		values, err := measureTraced(inst, steps, d, logs, root, &all)
		if err != nil {
			return nil, err
		}
		for _, m := range perLayer {
			metrics[m.name] = metric{values[m.name], m.unit}
		}
	}

	checkStart := now()
	checkErr := inst.check(root)
	root.add(spanCheck, checkStart, now())
	root.setParent(0)
	root.addAs(runID, spanRun, runStart, now())

	samples["read"], samples["write"] = all.read.n, all.write.n
	fmt.Fprintln(os.Stderr, report(name, seed, traced, &all, setupNS, checkErr))
	info, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "trace": traced, "workers": workers, "host": host,
		"samples":     samples,
		"failed_frac": ratio(float64(all.failed), float64(all.attempted)),
	})
	fmt.Println(string(info))
	if traced {
		dir := filepath.Join(work, "trace")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(dir, name+".spans.jsonl"), host, append([]*spanLog{root}, logs...)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	res := &result{Correct: checkErr == nil, Attempted: all.attempted, Failed: all.failed, Metrics: metrics}
	if checkErr != nil {
		return res, fmt.Errorf("output check failed: %w", checkErr)
	}
	return res, nil
}

// measure runs the untraced measurement. It is cut into one-second slices,
// and consecutive slices are grouped into the shortest windows in which
// every class has minSamples samples. Each window's metrics come from all
// of its samples, and each metric reported is the median over the windows,
// so a burst of interference from outside the process moves at most a
// minority of them. all accumulates every slice. It also returns the fewest
// samples of one class in one window.
func measure(steps []func(*tally) error, d time.Duration, all *tally) (map[string]float64, uint64, error) {
	slices := make([]*tally, max(1, int(d/slice)))
	secs := make([]float64, len(slices))
	for i := range slices {
		var err error
		if slices[i], secs[i], err = segment(steps, d/time.Duration(len(slices)), nil, nil); err != nil {
			return nil, 0, err
		}
		all.merge(slices[i])
	}
	for k := 1; k <= len(slices); k++ {
		perWindow := map[string][]float64{}
		minWindow := uint64(math.MaxUint64)
		for w := 0; w < len(slices)/k; w++ {
			// The last window takes the slices left over.
			hi := (w + 1) * k
			if w == len(slices)/k-1 {
				hi = len(slices)
			}
			var t tally
			var sec float64
			for i := w * k; i < hi; i++ {
				t.merge(slices[i])
				sec += secs[i]
			}
			minWindow = min(minWindow, t.read.n, t.write.n)
			perWindow["ops_per_s"] = append(perWindow["ops_per_s"], float64(t.attempted-t.failed)/sec)
			perWindow["read_p50_us"] = append(perWindow["read_p50_us"], t.read.quantile(0.50)/1e3)
			perWindow["read_p99_us"] = append(perWindow["read_p99_us"], t.read.quantile(0.99)/1e3)
			perWindow["write_p50_us"] = append(perWindow["write_p50_us"], t.write.quantile(0.50)/1e3)
			perWindow["write_p99_us"] = append(perWindow["write_p99_us"], t.write.quantile(0.99)/1e3)
		}
		if minWindow >= minSamples {
			values := map[string]float64{}
			for k, v := range perWindow {
				values[k] = median(v)
			}
			return values, minWindow, nil
		}
	}
	return nil, 0, fmt.Errorf("too few samples for p99: %d reads, %d writes in the whole run, want >= %d each",
		all.read.n, all.write.n, minSamples)
}

// measureTraced runs untraced and traced quarters alternately, so drift
// over the run does not land on one side of obs.trace_overhead, and
// derives the per-layer metrics from the traced quarters.
func measureTraced(inst instance, steps []func(*tally) error, d time.Duration, logs []*spanLog, root *spanLog, all *tally) (map[string]float64, error) {
	var (
		tr           tracedRun
		acc          = layerCounters{}
		tSecs, uSecs float64
		uOps         uint64
	)
	for q := 0; q < 4; q++ {
		on := q%2 == 1
		inst.setTraced(on)
		before := inst.counters()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var (
			t    *tally
			secs float64
			err  error
		)
		if on {
			t, secs, err = segment(steps, d/4, logs, root)
		} else {
			t, secs, err = segment(steps, d/4, nil, nil)
		}
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		all.merge(t)
		if on {
			acc.accumulate(before, inst.counters())
			tr.t.merge(t)
			tr.allocBytes += float64(ms1.TotalAlloc - ms0.TotalAlloc)
			tSecs += secs
		} else {
			uOps += t.attempted - t.failed
			uSecs += secs
		}
	}
	inst.setTraced(false)
	tr.opsPerS = float64(tr.t.attempted-tr.t.failed) / tSecs
	tr.untracedPS = float64(uOps) / uSecs
	for k, v := range inst.counters() {
		if isGauge(k) {
			acc[k] = v
		}
	}
	return derive(acc, tr), nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// report is the human-readable summary printed to standard error.
func report(name string, seed int64, traced bool, t *tally, setupNS []float64, checkErr error) string {
	check := "ok"
	if checkErr != nil {
		check = checkErr.Error()
	}
	return fmt.Sprintf("perfbench %s seed=%d traced=%v: %d ops attempted, %d failed (%.6f); samples read=%d write=%d; setup median %.4fs of %d; check: %s",
		name, seed, traced, t.attempted, t.failed, ratio(float64(t.failed), float64(t.attempted)),
		t.read.n, t.write.n, median(setupNS)/1e9, len(setupNS), check)
}
