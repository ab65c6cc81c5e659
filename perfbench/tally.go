package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// epoch anchors every timestamp the benchmark takes; time.Since reads the
// monotonic clock without allocating.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spanName labels a span: a call the benchmark made into one layer.
type spanName uint8

const (
	spanRun     spanName = iota // the whole traced measurement
	spanSetup                   // one set-up: populate, or boot a server
	spanSegment                 // one traced measurement segment
	spanCheck                   // the end-of-run output oracle
	spanTMRun                   // rhnorec Thread.Run
	spanTMRunRO                 // rhnorec Thread.RunReadOnly
	spanGet                     // serve binary-protocol requests
	spanPut
	spanCas
	spanScan
	spanTxn
	spanReopen // serve Close + New on the same data directory
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "setup", "segment", "check", "tm.Run", "tm.RunReadOnly",
	"serve.get", "serve.put", "serve.cas", "serve.scan", "serve.txn", "serve.reopen",
}

type span struct {
	id, parent uint64
	start, end int64
	name       spanName
	worker     int16
}

// spanLog keeps one goroutine's most recent spanKeep spans in memory, in
// a ring, for the trace file.
type spanLog struct {
	worker int16
	seq    uint64
	parent uint64
	ring   []span
	next   int
}

const spanKeep = 1 << 14

func newSpanLog(worker int) *spanLog {
	return &spanLog{worker: int16(worker), ring: make([]span, 0, spanKeep)}
}

// newID returns a fresh span ID, for a span whose children are recorded
// before it ends.
func (l *spanLog) newID() uint64 {
	if l == nil {
		return 0
	}
	l.seq++
	return uint64(l.worker+1)<<40 | l.seq
}

// add records a finished span with a fresh ID under the log's current
// parent.
func (l *spanLog) add(name spanName, start, end int64) {
	l.addAs(l.newID(), name, start, end)
}

// addAs records a finished span with a reserved ID under the log's current
// parent. A nil log keeps nothing.
func (l *spanLog) addAs(id uint64, name spanName, start, end int64) {
	if l == nil {
		return
	}
	s := span{id: id, parent: l.parent, start: start, end: end, name: name, worker: l.worker}
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, s)
	} else {
		l.ring[l.next] = s
		l.next = (l.next + 1) % len(l.ring)
	}
}

// setParent makes id the parent of the spans added next.
func (l *spanLog) setParent(id uint64) {
	if l != nil {
		l.parent = id
	}
}

// tally is one worker's record of a segment: latency histograms per class,
// op counts, and (in traced segments) its spans.
type tally struct {
	read, write       hist
	attempted, failed uint64
	// durableN and durableNS count the kv durable-acked writes and their
	// summed latency, which includes the group fsync.
	durableN, durableNS uint64
	spans               *spanLog // nil when untraced
}

// op records one completed operation. A failed op still counts as
// attempted and keeps its latency sample.
func (t *tally) op(read bool, name spanName, start, end int64, failed bool) {
	if read {
		t.read.record(end - start)
	} else {
		t.write.record(end - start)
	}
	t.attempted++
	if failed {
		t.failed++
	}
	t.spans.add(name, start, end)
}

func (t *tally) merge(o *tally) {
	t.read.merge(&o.read)
	t.write.merge(&o.write)
	t.attempted += o.attempted
	t.failed += o.failed
	t.durableN += o.durableN
	t.durableNS += o.durableNS
}

// writeTrace writes the host block and every kept span as JSON lines.
func writeTrace(path string, host map[string]any, logs []*spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		f.Close()
		return err
	}
	for _, l := range logs {
		for _, s := range l.ring {
			fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"worker":%d,"start_ns":%d,"end_ns":%d}`+"\n",
				s.id, s.parent, spanNames[s.name], s.worker, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
