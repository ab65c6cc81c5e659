package main

import (
	"strings"
	"testing"

	"rhnorec/internal/serve"
)

// TestWrongReplyFailsRun feeds a kv client replies that cannot be right and
// one that was shed. Each is a failed op; only the wrong ones fail the run.
func TestWrongReplyFailsRun(t *testing.T) {
	ok := func(res ...serve.OpResult) *serve.ProtoResponse {
		return &serve.ProtoResponse{Status: serve.StatusOK, Results: res}
	}
	get := func(key uint64) *serve.ProtoRequest {
		return &serve.ProtoRequest{Opcode: serve.OpcodeGet, Ops: []serve.Op{op(serve.OpGet, key, 0, 0, 0)}}
	}
	// Client 0 of 2 owns the even keys and has acknowledged 0x10001 at key 4.
	const own = 1<<48 | 1
	cases := []struct {
		name  string
		req   *serve.ProtoRequest
		resp  *serve.ProtoResponse
		wrong bool
	}{
		{"own key, last acked", get(4), ok(serve.OpResult{Val: own}), false},
		{"foreign key, owner's value", get(5), ok(serve.OpResult{Val: 2<<48 | 7}), false},
		{"foreign key, never written", get(5), ok(serve.OpResult{Val: 0}), false},
		{"shed", get(4), &serve.ProtoResponse{Status: serve.StatusShed}, false},
		{"own key, stale", get(4), ok(serve.OpResult{Val: 0}), true},
		{"foreign key, own value", get(5), ok(serve.OpResult{Val: 1<<48 | 9}), true},
		{"cas did not swap", &serve.ProtoRequest{Opcode: serve.OpcodeCas, Ops: []serve.Op{op(serve.OpCas, 4, 1<<48|2, own, 0)}},
			ok(serve.OpResult{Val: 0}), true},
		{"short scan", &serve.ProtoRequest{Opcode: serve.OpcodeScan, Ops: []serve.Op{op(serve.OpScan, 4, 0, 0, kvScanLen)}},
			ok(serve.OpResult{Vals: []uint64{own}}), true},
	}
	for _, c := range cases {
		k := &kvClient{id: 0, clients: 2, last: map[uint64]uint64{4: own}}
		failed, _ := k.settle(c.req, c.resp, []serve.ProtoRequest{*c.req})
		wantFailed := c.wrong || c.resp.Status != serve.StatusOK
		if failed != wantFailed {
			t.Errorf("%s: failed = %v, want %v", c.name, failed, wantFailed)
		}
		if !c.wrong {
			if k.wrong != nil {
				t.Errorf("%s: kept as wrong: %v", c.name, k.wrong)
			}
			continue
		}
		// The check fails before it reads anything back.
		err := (&kvLoad{clients: []*kvClient{k}}).check(nil)
		if err == nil || !strings.Contains(err.Error(), "wrong reply") {
			t.Errorf("%s: check = %v, want a wrong-reply error", c.name, err)
		}
	}
}
