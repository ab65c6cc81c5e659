package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"

	"rhnorec/internal/serve"
	"rhnorec/internal/tm"
	"rhnorec/internal/tmtest"
)

// kvKeys is the served key space; kvZipf the key skew of every draw.
const (
	kvKeys    = 1 << 16
	kvZipf    = 0.99
	kvScanLen = 64
	kvTxnPuts = 4 // puts in one kv-durable txn
)

// binConn is one binary-protocol connection (docs/SERVE.md framing).
type binConn struct {
	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	reqID uint64
	out   []byte
	in    []byte
	resp  serve.ProtoResponse
}

func dialBin(addr, identity string) (*binConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &binConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	c.bw.WriteString(serve.ProtoMagic)
	if err := c.send(&serve.ProtoRequest{Opcode: serve.OpcodeHello, Hello: identity}); err == nil {
		err = c.flush()
		if err == nil {
			_, err = c.recv(c.reqID)
		}
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return c, nil
}

// send buffers one request frame, numbering it; flush puts the buffered
// frames on the wire.
func (c *binConn) send(req *serve.ProtoRequest) error {
	c.reqID++
	req.ReqID = c.reqID
	payload, err := serve.AppendRequest(c.out[:0], req)
	if err != nil {
		return err
	}
	c.out = payload[:0]
	return serve.WriteFrame(c.bw, payload)
}

func (c *binConn) flush() error { return c.bw.Flush() }

// recv reads the next reply, which must answer request id: the server
// replies in frame order. The response is reused by the next recv.
func (c *binConn) recv(id uint64) (*serve.ProtoResponse, error) {
	frame, err := serve.ReadFrame(c.br, c.in)
	if err != nil {
		return nil, err
	}
	c.in = frame[:0]
	if err := serve.ParseResponseInto(frame, &c.resp); err != nil {
		return nil, err
	}
	if c.resp.ReqID != id {
		return nil, fmt.Errorf("reply for request %d, want %d", c.resp.ReqID, id)
	}
	return &c.resp, nil
}

// kvClient is one connection's generator state. Writes go only to the
// client's own key partition (key % clients == id), and every value a
// client writes carries its id in the top bits, so any read can be checked
// against the partition it came from, and the client's own keys against
// the last value it had acknowledged.
type kvClient struct {
	id, clients int
	c           *binConn
	rng         *rand.Rand
	zipf        *tmtest.ZipfKeys
	seq         uint64
	last        map[uint64]uint64 // own key -> last acknowledged value
	ackedWrites uint64
	reqs        []serve.ProtoRequest
	kinds       []spanName
	acked       []bool
	durable     []bool // per request slot: durable-acked
	writes      uint64 // writes sent, for placing durable acks
	wrong       error  // the first reply whose value cannot be right
}

func (k *kvClient) key() uint64 { return k.zipf.ScrambledNext(k.rng) }

// ownKey maps a drawn key into the client's partition.
func (k *kvClient) ownKey() uint64 {
	key := k.key()
	key = key - key%uint64(k.clients) + uint64(k.id)
	if key >= kvKeys {
		key -= uint64(k.clients)
	}
	return key
}

func (k *kvClient) value() uint64 {
	k.seq++
	return uint64(k.id+1)<<48 | k.seq
}

// valid reports whether a read in the current batch may return v for key.
// Other clients' keys hold 0 or a value their owner wrote. An own key holds
// the value acknowledged before the batch was sent, or one a write in the
// batch stores: pipelined requests are concurrent, so the server may order
// them either way.
func (k *kvClient) valid(key, v uint64, batch []serve.ProtoRequest) bool {
	if key%uint64(k.clients) != uint64(k.id) {
		return v == 0 || v>>48 == key%uint64(k.clients)+1
	}
	if v == k.last[key] {
		return true
	}
	for i := range batch {
		for _, o := range batch[i].Ops {
			if o.Kind != serve.OpGet && o.Kind != serve.OpScan && o.Key == key && o.Val == v {
				return true
			}
		}
	}
	return false
}

func op(kind serve.OpKind, key, val, old uint64, count uint32) serve.Op {
	return serve.Op{Kind: kind, Key: key, Val: val, Old: old, Count: count}
}

// request fills the i-th request slot with the next op of the mix:
// reads (get, scan) at any key, writes (put, cas, txn) in the own
// partition.
func (k *kvClient) request(i int, mix [4]int) {
	getPct, scanPct, putPct, casPct := mix[0], mix[1], mix[2], mix[3]
	req := &k.reqs[i]
	req.Ops = req.Ops[:0]
	r := k.rng.Intn(100)
	switch {
	case r < getPct:
		req.Opcode, k.kinds[i] = serve.OpcodeGet, spanGet
		req.Ops = append(req.Ops, op(serve.OpGet, k.key(), 0, 0, 0))
	case r < getPct+scanPct:
		start := min(k.key(), kvKeys-kvScanLen)
		req.Opcode, k.kinds[i] = serve.OpcodeScan, spanScan
		req.Ops = append(req.Ops, op(serve.OpScan, start, 0, 0, kvScanLen))
	case r < getPct+scanPct+putPct:
		req.Opcode, k.kinds[i] = serve.OpcodePut, spanPut
		req.Ops = append(req.Ops, op(serve.OpPut, k.ownKey(), k.value(), 0, 0))
	case r < getPct+scanPct+putPct+casPct:
		key := k.ownKey()
		req.Opcode, k.kinds[i] = serve.OpcodeCas, spanCas
		req.Ops = append(req.Ops, op(serve.OpCas, key, k.value(), k.last[key], 0))
	default:
		req.Opcode, k.kinds[i] = serve.OpcodeTxn, spanTxn
		for j := 0; j < kvTxnPuts; j++ {
			req.Ops = append(req.Ops, op(serve.OpPut, k.ownKey(), k.value(), 0, 0))
		}
	}
}

// settle checks one reply of the batch against the request it answers. It
// reports whether the op failed and whether it was an acknowledged write.
// A shed or errored reply is a failed op. A reply that cannot be right (a
// value no client wrote there, a stale own key, a cas that did not swap)
// is a failed op too, and is kept in k.wrong, which fails the run.
func (k *kvClient) settle(req *serve.ProtoRequest, resp *serve.ProtoResponse, batch []serve.ProtoRequest) (failed, acked bool) {
	if resp.Status != serve.StatusOK {
		return true, false
	}
	if err := k.wrongReply(req, resp, batch); err != nil {
		if k.wrong == nil {
			k.wrong = fmt.Errorf("request %d: %w", req.ReqID, err)
		}
		return true, false
	}
	return false, !isRead(req)
}

// wrongReply describes why a successful reply cannot be right, or is nil.
func (k *kvClient) wrongReply(req *serve.ProtoRequest, resp *serve.ProtoResponse, batch []serve.ProtoRequest) error {
	if len(resp.Results) != len(req.Ops) {
		return fmt.Errorf("%d results for %d ops", len(resp.Results), len(req.Ops))
	}
	switch req.Opcode {
	case serve.OpcodeGet:
		if key, v := req.Ops[0].Key, resp.Results[0].Val; !k.valid(key, v, batch) {
			return fmt.Errorf("get %d returned %#x", key, v)
		}
	case serve.OpcodeScan:
		vals := resp.Results[0].Vals
		if len(vals) != kvScanLen {
			return fmt.Errorf("scan %d returned %d values, want %d", req.Ops[0].Key, len(vals), kvScanLen)
		}
		for j, v := range vals {
			if key := req.Ops[0].Key + uint64(j); !k.valid(key, v, batch) {
				return fmt.Errorf("scan returned %#x at key %d", v, key)
			}
		}
	case serve.OpcodeCas:
		if !resp.Results[0].Swapped {
			return fmt.Errorf("cas %d from last acknowledged %#x did not swap", req.Ops[0].Key, req.Ops[0].Old)
		}
	}
	return nil
}

// step sends the shape's depth of requests through one flush and reads
// the replies. Each request's latency runs from the flush to its reply.
// Every ackEvery-th write is durable-acked: OpcodeDurable frames around it
// make its reply wait until the redo log, everything appended before it
// included, is fsynced.
func (k *kvClient) step(t *tally, shape kvShape) error {
	n := shape.depth
	for i := 0; i < n; i++ {
		k.request(i, shape.mix)
		req := &k.reqs[i]
		k.durable[i] = false
		if !isRead(req) && shape.ackEvery > 0 {
			k.writes++
			k.durable[i] = k.writes%uint64(shape.ackEvery) == 0
		}
		if k.durable[i] {
			if err := k.c.send(&serve.ProtoRequest{Opcode: serve.OpcodeDurable, Durable: true}); err != nil {
				return err
			}
		}
		if err := k.c.send(req); err != nil {
			return err
		}
		if k.durable[i] {
			if err := k.c.send(&serve.ProtoRequest{Opcode: serve.OpcodeDurable}); err != nil {
				return err
			}
		}
	}
	start := now()
	if err := k.c.flush(); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		req := &k.reqs[i]
		if k.durable[i] {
			if err := k.toggled(req.ReqID - 1); err != nil {
				return err
			}
		}
		resp, err := k.c.recv(req.ReqID)
		if err != nil {
			return err
		}
		end := now()
		failed, acked := k.settle(req, resp, k.reqs[:n])
		k.acked[i] = acked
		t.op(isRead(req), k.kinds[i], start, end, failed)
		if k.durable[i] {
			t.durableN++
			t.durableNS += uint64(end - start)
			if err := k.toggled(req.ReqID + 1); err != nil {
				return err
			}
		}
	}
	// The batch's acknowledged writes become current only now, so every
	// read above was checked against the state before the batch.
	for i := 0; i < n; i++ {
		if k.acked[i] {
			for _, o := range k.reqs[i].Ops {
				k.last[o.Key] = o.Val
			}
			k.ackedWrites++
		}
	}
	return nil
}

func isRead(req *serve.ProtoRequest) bool {
	return req.Opcode == serve.OpcodeGet || req.Opcode == serve.OpcodeScan
}

// toggled reads the reply to an OpcodeDurable frame.
func (k *kvClient) toggled(id uint64) error {
	resp, err := k.c.recv(id)
	if err == nil && resp.Status != serve.StatusOK {
		err = fmt.Errorf("durable toggle status %d: %s", resp.Status, resp.Msg)
	}
	return err
}

// verifyOwn reads back every own key through get requests of up to 128 keys
// and compares each with the last acknowledged value.
func verifyOwn(last map[uint64]uint64, get func(keys []serve.Op) ([]serve.OpResult, error)) error {
	keys := make([]serve.Op, 0, 128)
	flush := func() error {
		res, err := get(keys)
		if err != nil {
			return err
		}
		for j, o := range keys {
			if res[j].Val != last[o.Key] {
				return fmt.Errorf("key %d reads %#x, last acknowledged %#x", o.Key, res[j].Val, last[o.Key])
			}
		}
		keys = keys[:0]
		return nil
	}
	for key := range last {
		keys = append(keys, op(serve.OpGet, key, 0, 0, 0))
		if len(keys) == cap(keys) {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(keys) > 0 {
		return flush()
	}
	return nil
}

// kvShape is a kv workload's traffic: the request mix in percent (get,
// scan, put, cas; txn is the rest), the requests each connection
// pipelines, and how many writes apart its durable acks are (0: none).
type kvShape struct {
	mix      [4]int
	depth    int
	ackEvery int
}

// kvLoad is a serve.Server over loopback with one binary connection per
// worker.
type kvLoad struct {
	cfg     serve.Config
	srv     *serve.Server
	clients []*kvClient
	shape   kvShape
}

func newKV(cfg serve.Config, seed int64, n int, shape kvShape) (*kvLoad, error) {
	cfg.Algo, cfg.Keys, cfg.Workers = "rh-norec", kvKeys, n
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	l := &kvLoad{cfg: cfg, srv: srv, shape: shape}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	zipf := tmtest.NewZipfKeys(kvKeys, kvZipf)
	for i := 0; i < n; i++ {
		c, err := dialBin(addr.String(), fmt.Sprintf("conn-%d", i))
		if err != nil {
			l.close()
			return nil, err
		}
		l.clients = append(l.clients, &kvClient{
			id: i, clients: n, c: c, zipf: zipf,
			rng:     rand.New(rand.NewSource(seed*1000 + int64(i) + 1)),
			last:    map[uint64]uint64{},
			reqs:    make([]serve.ProtoRequest, shape.depth),
			kinds:   make([]spanName, shape.depth),
			acked:   make([]bool, shape.depth),
			durable: make([]bool, shape.depth),
		})
	}
	return l, nil
}

// setupKVMem boots the in-memory server: 90% get, 5% scan, 5% put, each
// connection pipelining 8 requests.
func setupKVMem(seed int64, n int, _ string) (instance, error) {
	return newKV(serve.Config{}, seed, n, kvShape{mix: [4]int{90, 5, 5, 0}, depth: 8})
}

// kvAckEvery is how many writes of a connection share one durable ack:
// the ack granularity of the repository's durability sweep (BENCH_7.json;
// internal/bench durable-acks every 16-op worker batch, the service's fuse
// width). Durable acks on every write would put an fsync in every write's
// latency, and the fsync tail of a shared disk moves p99 by 20-60% from
// run to run (README.md).
const kvAckEvery = 16

// setupKVDurable boots the server on a fresh data directory with group
// fsync: 50% get, 40% put, 5% cas, 5% txn of 4 puts, unpipelined. Every
// write appends to the redo log; every kvAckEvery-th write of a connection
// waits for the group fsync.
func setupKVDurable(seed int64, n int, dir string) (instance, error) {
	data, err := os.MkdirTemp(dir, "kv-durable-")
	if err != nil {
		return nil, err
	}
	cfg := serve.Config{DataDir: data, Policy: tm.RetryPolicy{Persist: tm.PersistGroup}}
	l, err := newKV(cfg, seed, n, kvShape{mix: [4]int{50, 0, 40, 5}, depth: 1, ackEvery: kvAckEvery})
	if err != nil {
		os.RemoveAll(data)
		return nil, err
	}
	return l, nil
}

func (l *kvLoad) step(i int) func(*tally) error {
	k := l.clients[i]
	return func(t *tally) error { return k.step(t, l.shape) }
}

// setTraced is a no-op: the server's recorders are part of the program and
// always on; the traced run adds only the benchmark's own spans.
func (l *kvLoad) setTraced(bool) {}

func (l *kvLoad) counters() layerCounters {
	d := l.srv.Snapshot()
	c := layerCounters{
		"commits":           float64(d.TM.Commits),
		"fast_commits":      float64(d.TM.FastPathCommits),
		"fallbacks":         float64(d.TM.Fallbacks),
		"server_htm_aborts": float64(d.TM.HTMAborts),
		// Deadline sheds are in both the admission and the endpoint
		// counters; queue and saturation sheds only in the admission ones.
		"shed": float64(d.Admission.QueueShed + d.Admission.SaturationShed + d.Admission.DeadlineShed),
	}
	for _, ep := range d.Endpoints {
		c["requests"] += float64(ep.Requests)
		c["fused"] += float64(ep.Fused)
		c["server_n"] += float64(ep.Latency.Count)
		c["server_ns"] += float64(ep.Latency.SumNS)
	}
	for _, b := range d.Pipeline {
		c["drains"] += float64(b.Drains)
	}
	if d.SnapScan != nil {
		c["snap_attempts"] = float64(d.SnapScan.Attempts)
		c["snap_hits"] = float64(d.SnapScan.Hits)
	}
	if d.Obs != nil {
		for _, p := range d.Obs.Phases {
			c[p.Phase+"_n"] = float64(p.Count)
			c[p.Phase+"_ns"] = float64(p.SumNS)
		}
	}
	if p := d.Persist; p != nil {
		c["appends"] = float64(p.LogAppends)
		c["fsync_groups"] = float64(p.FsyncGroups)
		c["fsyncs"] = float64(p.Fsyncs)
		c["appends_gauge"] = float64(p.LogAppends)
		c["disk_bytes_gauge"] = float64(dirBytes(l.cfg.DataDir))
		for _, k := range l.clients {
			c["acked_writes_gauge"] += float64(k.ackedWrites)
		}
	}
	return c
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// check fails on the first wrong reply any connection saw, then reads
// every connection's own keys back. With a data directory it first closes
// the server and reopens the directory, so the read-back covers what
// recovery replays.
func (l *kvLoad) check(spans *spanLog) error {
	for _, k := range l.clients {
		if k.wrong != nil {
			return fmt.Errorf("connection %d: wrong reply: %w", k.id, k.wrong)
		}
	}
	if l.cfg.DataDir == "" {
		for _, k := range l.clients {
			err := verifyOwn(k.last, func(keys []serve.Op) ([]serve.OpResult, error) {
				if err := k.c.send(&serve.ProtoRequest{Opcode: serve.OpcodeGet, Ops: keys}); err != nil {
					return nil, err
				}
				if err := k.c.flush(); err != nil {
					return nil, err
				}
				resp, err := k.c.recv(k.c.reqID)
				if err != nil {
					return nil, err
				}
				if resp.Status != serve.StatusOK {
					return nil, fmt.Errorf("read-back status %d: %s", resp.Status, resp.Msg)
				}
				return resp.Results, nil
			})
			if err != nil {
				return fmt.Errorf("kv-mem connection %d: %w", k.id, err)
			}
		}
		return nil
	}
	l.closeConns()
	start := now()
	l.srv.Close()
	srv, err := serve.New(l.cfg)
	spans.add(spanReopen, start, now())
	if err != nil {
		return fmt.Errorf("kv-durable reopen: %w", err)
	}
	l.srv = srv
	for _, k := range l.clients {
		err := verifyOwn(k.last, func(keys []serve.Op) ([]serve.OpResult, error) {
			return srv.Do("check", serve.EpGet, keys)
		})
		if err != nil {
			return fmt.Errorf("kv-durable after reopen, connection %d: %w", k.id, err)
		}
	}
	return nil
}

func (l *kvLoad) closeConns() {
	for _, k := range l.clients {
		k.c.conn.Close()
	}
}

func (l *kvLoad) close() {
	l.closeConns()
	l.srv.Close()
	if l.cfg.DataDir != "" {
		os.RemoveAll(l.cfg.DataDir)
	}
}
