package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// probeHost describes the machine a result was measured on. dir is the
// data directory, whose filesystem and fsync cost are probed.
func probeHost(dir string) (map[string]any, error) {
	fsync, err := probeFsync(dir)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"nproc":                    runtime.NumCPU(),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"go_version":               runtime.Version(),
		"cpu_model":                cpuModel(),
		"data_dir_fs":              filesystemOf(dir),
		"sleep_200us_overshoot_us": probeSleep(),
		"fsync_4k_us":              fsync,
	}, nil
}

func medianNS(d []time.Duration) float64 {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(d[len(d)/2]) / 1e3
}

// probeSleep is the median overshoot of time.Sleep(200µs): how late a
// sleep-paced open loop would send.
func probeSleep() float64 {
	d := make([]time.Duration, 21)
	for i := range d {
		start := time.Now()
		time.Sleep(200 * time.Microsecond)
		d[i] = time.Since(start) - 200*time.Microsecond
	}
	return medianNS(d)
}

// probeFsync is the median time to write and fsync 4 KiB in dir.
func probeFsync(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	d := make([]time.Duration, 7)
	for i := range d {
		start := time.Now()
		if _, err := f.WriteAt(buf, int64(i)*4096); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		d[i] = time.Since(start)
	}
	return medianNS(d), nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// filesystemOf returns the type of the filesystem dir lives on: the
// mountinfo entry with the longest mount point that contains dir.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// mount-id parent major:minor root mount-point options [optional...] - fstype source super-options
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 1 {
			continue
		}
		mp := fields[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), tail[0]
		}
	}
	return fs
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}
