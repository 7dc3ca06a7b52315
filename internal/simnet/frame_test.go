package simnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"contory/internal/radio"
	"contory/internal/vclock"
)

// framePayload is boxed once, so sending it allocates nothing.
var framePayload any = "payload"

// frameRig builds a network of n nodes linked pairwise over BT, each with
// a "ping" handler that does nothing; lanes > 0 shards it.
func frameRig(tb testing.TB, n, lanes int) (*Network, *vclock.Simulator, []NodeID) {
	tb.Helper()
	clk := vclock.NewSimulator()
	nw := New(clk)
	if lanes > 0 {
		if err := nw.EnableSharding(lanes); err != nil {
			tb.Fatal(err)
		}
	}
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%02d", i))
		node, err := nw.AddNode(ids[i], Position{})
		if err != nil {
			tb.Fatal(err)
		}
		node.Handle("ping", func(Message) {})
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if err := nw.Connect(a, b, radio.MediumBT); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return nw, clk, ids
}

// sendFrames sends count frames round the ring of ids, the i-th after
// (i+1) µs, so no two frames share a delivery timestamp.
func sendFrames(tb testing.TB, nw *Network, ids []NodeID, count int) {
	for i := 0; i < count; i++ {
		msg := Message{
			From:    ids[i%len(ids)],
			To:      ids[(i+1)%len(ids)],
			Medium:  radio.MediumBT,
			Kind:    "ping",
			Payload: framePayload,
			Bytes:   32,
		}
		if err := nw.Send(msg, time.Duration(i+1)*time.Microsecond); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestSendDeliverAllocs: on an unsharded network, once the frame and
// event free lists are warm, sending 100 frames and delivering them
// allocates nothing.
func TestSendDeliverAllocs(t *testing.T) {
	nw, clk, ids := frameRig(t, 4, 0)
	got := testing.AllocsPerRun(20, func() {
		sendFrames(t, nw, ids, 100)
		clk.Run(0)
	})
	if got != 0 {
		t.Fatalf("100 frames sent and delivered: %v allocations, want 0", got)
	}
	if delivered, dropped := nw.Stats(); delivered != 21*100 || dropped != 0 {
		t.Fatalf("stats = %d delivered, %d dropped; want %d, 0", delivered, dropped, 21*100)
	}
}

// TestShardedSendDeliverAllocs: on a 4-lane network drained by
// RunParallelUntil, frames cost no allocation of their own: 1,000 frames
// allocate what 100 do, the drain's fixed per-call scratch. The drain runs
// on one worker: a worker pool's goroutines are made per drain, and
// whether they reuse the last drain's depends on when those exited.
// TestFrameReuseUnderParallelDrain covers the pool.
func TestShardedSendDeliverAllocs(t *testing.T) {
	nw, clk, ids := frameRig(t, 8, 4)
	lanes := map[int32]bool{}
	for _, id := range ids {
		lanes[nw.LaneOf(id)] = true
	}
	if len(lanes) < 2 {
		t.Fatalf("nodes span %d lanes, want several", len(lanes))
	}
	round := func(count int) func() {
		return func() {
			sendFrames(t, nw, ids, count)
			clk.RunParallelUntil(clk.Now().Add(time.Second), 1)
		}
	}
	small := testing.AllocsPerRun(20, round(100))
	large := testing.AllocsPerRun(20, round(1000))
	if small != large {
		t.Fatalf("100 frames: %v allocations per drain, 1,000 frames: %v; want equal", small, large)
	}
	t.Logf("%v allocations per drain", small)
}

// TestFrameReuseUnderParallelDrain: senders on every lane send while four
// workers drain a sharded network, so frames return to the free list and
// are taken again concurrently. Every handler must get exactly the
// message that was sent to it, and every message must arrive once. Run
// it under the race detector: a frame returned before its message is
// copied out is reported there.
func TestFrameReuseUnderParallelDrain(t *testing.T) {
	nw, clk, ids := frameRig(t, 12, 4)
	type probe struct {
		from, to NodeID
		seq      int
	}
	var mu sync.Mutex
	sent := map[*probe]int{}
	for _, id := range ids {
		nw.Node(id).Handle("probe", func(m Message) {
			p, ok := m.Payload.(*probe)
			if !ok || p.from != m.From || p.to != m.To || m.To != id || m.Bytes != p.seq {
				t.Errorf("node %s got %+v carrying %+v", id, m, m.Payload)
				return
			}
			mu.Lock()
			sent[p]--
			mu.Unlock()
		})
	}
	var timers []*vclock.Timer
	for i, id := range ids {
		seq := 0
		timers = append(timers, nw.ClockFor(id).Every(time.Millisecond, func() {
			for k := 1; k <= 3; k++ {
				p := &probe{from: id, to: ids[(i+k)%len(ids)], seq: seq}
				seq++
				mu.Lock()
				sent[p]++
				mu.Unlock()
				msg := Message{From: p.from, To: p.to, Medium: radio.MediumBT, Kind: "probe", Payload: p, Bytes: p.seq}
				if err := nw.Send(msg, time.Duration(k)*time.Millisecond); err != nil {
					t.Error(err)
				}
			}
		}))
	}
	clk.RunParallelUntil(clk.Now().Add(200*time.Millisecond), 4)
	for _, tm := range timers {
		tm.Stop()
	}
	clk.RunParallelUntil(clk.Now().Add(10*time.Millisecond), 4)
	if len(sent) != 200*len(ids)*3 {
		t.Fatalf("%d probes sent, want %d", len(sent), 200*len(ids)*3)
	}
	for p, n := range sent {
		if n != 0 {
			t.Fatalf("probe %+v: sent minus received = %d, want 0", *p, n)
		}
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	for _, lanes := range []int{0, 4} {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			nw, clk, ids := frameRig(b, 8, lanes)
			drain := func() {
				if lanes > 0 {
					clk.RunParallelUntil(clk.Now().Add(time.Second), 4)
				} else {
					clk.Run(0)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += 256 {
				sendFrames(b, nw, ids, min(256, b.N-done))
				drain()
			}
		})
	}
}
