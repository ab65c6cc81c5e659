package main

import (
	"fmt"
	"math/rand"

	"rhnorec"
	"rhnorec/internal/conformance"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// tmSystem is an rh-norec system with its simulated device and one thread
// per worker, built through the root rhnorec API with the library's HTM
// and cost-model defaults.
type tmSystem struct {
	m       *rhnorec.Memory
	dev     *rhnorec.HTMDevice
	threads []rhnorec.Thread
	// recs are the threads' recorders, attached only in traced segments
	// and kept across them, so their phase totals cover exactly those.
	recs []*obs.Recorder
}

func newTMSystem(words, workers int) (*tmSystem, error) {
	m := rhnorec.NewMemory(words)
	dev := rhnorec.NewHTMDevice(m, rhnorec.HTMConfig{})
	dev.SetActiveThreads(workers)
	sys, err := rhnorec.NewRHNOrec(m, rhnorec.Options{Device: dev})
	if err != nil {
		return nil, err
	}
	s := &tmSystem{m: m, dev: dev, threads: make([]rhnorec.Thread, workers), recs: make([]*obs.Recorder, workers)}
	for i := range s.threads {
		s.threads[i] = sys.NewThread()
		s.recs[i] = obs.NewRecorder(obs.Config{})
	}
	return s, nil
}

func (s *tmSystem) setTraced(on bool) {
	for i, th := range s.threads {
		th.Stats().Obs = nil
		if on {
			th.Stats().Obs = s.recs[i]
		}
	}
}

var phaseKeys = map[obs.Phase]string{
	obs.PhaseFast: "fast", obs.PhasePrefix: "prefix", obs.PhaseSoftware: "software", obs.PhaseWriteback: "writeback",
}

func (s *tmSystem) counters() layerCounters {
	c := layerCounters{}
	var st tm.Stats
	for _, th := range s.threads {
		st.Add(th.Stats())
	}
	c.addStats(&st)
	for _, r := range s.recs {
		for p, k := range phaseKeys {
			h := r.PhaseHist(p)
			c[k+"_n"] += float64(h.Count())
			c[k+"_ns"] += float64(h.Sum())
		}
	}
	d := s.dev.Stats()
	c["dev_starts"] = float64(d.Starts)
	c["dev_commits"] = float64(d.Commits)
	c["arena_bytes_gauge"] = float64(s.m.ArenaUsed() * 8)
	return c
}

func (s *tmSystem) close() {
	for _, th := range s.threads {
		th.Close()
	}
}

// rbtreeKeys and rbtreeSize give the paper's Fig. 4 red-black tree: 10,000
// nodes over keys drawn uniformly from [0, 20000), so an insert or a delete
// succeeds about half the time and the size stays near 10,000.
const (
	rbtreeKeys = 20000
	rbtreeSize = 10000
)

// rbtreeWorker carries one worker's next op into transaction bodies built
// once, so the measured loop does not allocate a closure per op.
type rbtreeWorker struct {
	th            rhnorec.Thread
	tree          rhnorec.RBTree
	rng           *rand.Rand
	key           uint64
	get, put, del func(rhnorec.Tx) error
}

type rbtreeLoad struct {
	*tmSystem
	tree    rhnorec.RBTree
	workers []*rbtreeWorker
}

func setupRBTree(seed int64, n int, _ string) (instance, error) {
	s, err := newTMSystem(1<<21, n)
	if err != nil {
		return nil, err
	}
	l := &rbtreeLoad{tmSystem: s}
	th := s.threads[0]
	if err := th.Run(func(tx rhnorec.Tx) error { l.tree = rhnorec.NewRBTree(tx); return nil }); err != nil {
		return nil, err
	}
	for _, k := range rand.New(rand.NewSource(seed)).Perm(rbtreeKeys)[:rbtreeSize] {
		key := uint64(k)
		if err := th.Run(func(tx rhnorec.Tx) error { l.tree.Put(tx, key, key); return nil }); err != nil {
			return nil, err
		}
	}
	for i, th := range s.threads {
		w := &rbtreeWorker{th: th, tree: l.tree, rng: rand.New(rand.NewSource(seed*1000 + int64(i) + 1))}
		w.get = func(tx rhnorec.Tx) error { w.tree.Get(tx, w.key); return nil }
		w.put = func(tx rhnorec.Tx) error { w.tree.Put(tx, w.key, w.key); return nil }
		w.del = func(tx rhnorec.Tx) error { w.tree.Delete(tx, w.key); return nil }
		l.workers = append(l.workers, w)
	}
	return l, nil
}

// step runs one op: 90% lookups (read-only), 5% inserts, 5% deletes.
func (l *rbtreeLoad) step(i int) func(*tally) error {
	w := l.workers[i]
	return func(t *tally) error {
		w.key = uint64(w.rng.Intn(rbtreeKeys))
		r := w.rng.Intn(100)
		start := now()
		var err error
		switch {
		case r < 90:
			err = w.th.RunReadOnly(w.get)
			t.op(true, spanTMRunRO, start, now(), err != nil)
		case r < 95:
			err = w.th.Run(w.put)
			t.op(false, spanTMRun, start, now(), err != nil)
		default:
			err = w.th.Run(w.del)
			t.op(false, spanTMRun, start, now(), err != nil)
		}
		return nil
	}
}

// check validates the red-black invariants (BST order, colors, black
// height, size) in one transaction.
func (l *rbtreeLoad) check(*spanLog) error {
	return l.threads[0].Run(func(tx rhnorec.Tx) error { return l.tree.CheckInvariants(tx) })
}

// bankConfig is the audit workload: an audit reads 4096 lines, twice the
// simulated read capacity, so every audit capacity-aborts into the mixed
// slow path while transfers commit on the fast path beside it.
var bankConfig = conformance.BankConfig{Accounts: 4096, ObserverEvery: 32}

// readOnlyProbe notes whether the op it carried ran read-only, so a
// conformance.BankOp can be classed as an audit or a transfer.
type readOnlyProbe struct {
	rhnorec.Thread
	ro bool
}

func (p *readOnlyProbe) RunReadOnly(fn func(rhnorec.Tx) error) error {
	p.ro = true
	return p.Thread.RunReadOnly(fn)
}

type bankLoad struct {
	*tmSystem
	seed       int64
	base       rhnorec.Addr
	violations []uint64 // per worker, written only by that worker
}

func setupBank(seed int64, n int, _ string) (instance, error) {
	s, err := newTMSystem(1<<17, n)
	if err != nil {
		return nil, err
	}
	base, err := conformance.BankSetup(s.threads[0], bankConfig)
	if err != nil {
		return nil, err
	}
	return &bankLoad{tmSystem: s, seed: seed, base: base, violations: make([]uint64, n)}, nil
}

// step runs one conformance.BankOp: a transfer, or on 1 op in 32 an audit.
// An audit that sees a wrong total, in any attempt, is a failed op.
func (l *bankLoad) step(i int) func(*tally) error {
	p := &readOnlyProbe{Thread: l.threads[i]}
	rng := rand.New(rand.NewSource(l.seed*1000 + int64(i) + 1))
	seen := false
	report := func(string) { seen = true }
	return func(t *tally) error {
		p.ro, seen = false, false
		start := now()
		err := conformance.BankOp(p, bankConfig, l.base, rng, report)
		name := spanTMRun
		if p.ro {
			name = spanTMRunRO
		}
		if seen {
			l.violations[i]++
		}
		t.op(p.ro, name, start, now(), err != nil || seen)
		return nil
	}
}

func (l *bankLoad) counters() layerCounters {
	c := l.tmSystem.counters()
	for _, v := range l.violations {
		c["violations"] += float64(v)
	}
	return c
}

// check verifies the conserved total over a tear-free snapshot.
func (l *bankLoad) check(*spanLog) error {
	if err := conformance.BankCheck(l.m, bankConfig, l.base); err != nil {
		return fmt.Errorf("tm-bank-audit: %w", err)
	}
	return nil
}
