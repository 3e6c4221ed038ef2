package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"anoncover/internal/graph"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// ctrlClient speaks the control protocol to one worker, matching
// replies to requests by nonce.
type ctrlClient struct {
	t     *testing.T
	fc    *frameConn
	early map[uint32]frame // replies read while awaiting another nonce
}

func dialCtrl(t *testing.T, addr string) *ctrlClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var mx Metrics
	fc := newFrameConn(conn, 2*time.Second, &mx)
	t.Cleanup(func() { fc.close() })
	if err := fc.write(&frame{typ: fHello}); err != nil {
		t.Fatal(err)
	}
	return &ctrlClient{t: t, fc: fc, early: map[uint32]frame{}}
}

func (c *ctrlClient) send(typ byte, nonce uint32, payload []byte) {
	c.t.Helper()
	if err := c.fc.write(&frame{typ: typ, run: nonce, payload: payload}); err != nil {
		c.t.Fatal(err)
	}
}

// await returns the reply to nonce, failing the test unless it arrives
// within d.
func (c *ctrlClient) await(nonce uint32, d time.Duration) frame {
	c.t.Helper()
	deadline := time.Now().Add(d)
	for {
		if f, ok := c.early[nonce]; ok {
			delete(c.early, nonce)
			return f
		}
		f, err := c.fc.readTimeout(time.Until(deadline))
		if err != nil {
			c.t.Fatalf("no reply to request %d within %v: %v", nonce, d, err)
		}
		c.early[f.run] = f
	}
}

// twoShardPlan returns the install plan of shard self of a 3×3 grid cut
// into two shards, at install generation gen.
func twoShardPlan(self int32, gen uint64, peers []string) *WorkerPlan {
	g := graph.Grid(3, 3)
	st := shard.BuildK(g.Flat(), 2)
	sh := st.Shards[self]
	plan := &WorkerPlan{
		Session: 7, Gen: gen, Algo: "edgepack",
		Workers: 2, Self: self, Peers: peers,
		Params:  sim.GraphParams(g),
		Shard:   sh,
		Weights: make([]int64, len(sh.Nodes)),
		Kinds:   make([]uint8, len(sh.Nodes)),
	}
	for i := range plan.Weights {
		plan.Weights[i] = 1
	}
	return plan
}

func mustPlan(t *testing.T, plan *WorkerPlan) []byte {
	t.Helper()
	payload, err := encodePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestWorkerAnswersWhilePrepareWaits: a prepare that waits for a peer
// which never dials (it restarted without the session) must not stop
// the worker's control loop.  Pings are answered at once, and a
// newer-generation install both succeeds and ends the stuck prepare —
// all well inside the worker's 30 s frame timeout.
func TestWorkerAnswersWhilePrepareWaits(t *testing.T) {
	w := NewWorker()
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()

	// Shard 1 waits for shard 0 to dial it; nothing listens for shard 0.
	peers := []string{"127.0.0.1:1", w.Addr()}
	c := dialCtrl(t, w.Addr())
	c.send(fSetup, 1, mustPlan(t, twoShardPlan(1, 1, peers)))
	if f := c.await(1, 2*time.Second); f.typ != fReady {
		t.Fatalf("install: frame type %d, want fReady", f.typ)
	}

	var start bytes.Buffer
	binary.Write(&start, binary.LittleEndian, uint64(7))
	if err := gob.NewEncoder(&start).Encode(&StartSpec{Run: 2, Rounds: 10}); err != nil {
		t.Fatal(err)
	}
	c.send(fStart, 2, start.Bytes())

	c.send(fPing, 3, nil)
	if f := c.await(3, 2*time.Second); f.typ != fPong {
		t.Fatalf("ping during prepare: frame type %d, want fPong", f.typ)
	}
	c.send(fSetup, 4, mustPlan(t, twoShardPlan(1, 2, peers)))
	if f := c.await(4, 2*time.Second); f.typ != fReady {
		t.Fatalf("re-install during prepare: frame type %d, want fReady", f.typ)
	}
	if f := c.await(2, 2*time.Second); f.typ != fError {
		t.Fatalf("prepare of the replaced install: frame type %d, want fError", f.typ)
	}
}

// TestWorkerRejectsMalformedShard: every field of the shipped shard the
// shard step or the transport indexes with is checked at install time.
// A malformed plan is refused with ecBadRequest, and the worker keeps
// serving — no index panic, no session left behind.
func TestWorkerRejectsMalformedShard(t *testing.T) {
	w := NewWorker()
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()
	peers := []string{w.Addr(), "127.0.0.1:1"}

	cases := []struct {
		name   string
		mutate func(p *WorkerPlan)
	}{
		{"self beyond workers", func(p *WorkerPlan) { p.Self = 2 }},
		{"peer list short", func(p *WorkerPlan) { p.Peers = p.Peers[:1] }},
		{"offsets missing", func(p *WorkerPlan) { p.Shard.Off = nil }},
		{"offsets short", func(p *WorkerPlan) { p.Shard.Off = p.Shard.Off[:len(p.Shard.Off)-1] }},
		{"offsets start past 0", func(p *WorkerPlan) { p.Shard.Off[0] = 1 }},
		{"offsets decrease", func(p *WorkerPlan) { p.Shard.Off[2] = p.Shard.Off[1] - 1 }},
		{"route table short", func(p *WorkerPlan) { p.Shard.Route = p.Shard.Route[1:] }},
		{"local route beyond inbox", func(p *WorkerPlan) {
			p.Shard.Route[localRoute(p)] = int32(p.Shard.InboxLen())
		}},
		{"halo route beyond halo-out", func(p *WorkerPlan) {
			p.Shard.Route[haloRoute(p)] = ^int32(p.Shard.HaloOut)
		}},
		{"halo-out larger than its segments", func(p *WorkerPlan) { p.Shard.HaloOut++ }},
		{"out segment to itself", func(p *WorkerPlan) { p.Shard.Out[0].Dst = 0 }},
		{"out segment to no worker", func(p *WorkerPlan) { p.Shard.Out[0].Dst = 2 }},
		{"out segment off its tile", func(p *WorkerPlan) { p.Shard.Out[0].Off = 1 }},
		{"out segment negative length", func(p *WorkerPlan) { p.Shard.Out[0].Len = -1 }},
		{"in segment from itself", func(p *WorkerPlan) { p.Shard.In[0].Src = 0 }},
		{"in segment from no worker", func(p *WorkerPlan) { p.Shard.In[0].Src = -1 }},
		{"in slot beyond inbox", func(p *WorkerPlan) { p.Shard.In[0].Slots[0] = int32(p.Shard.InboxLen()) }},
		{"in slot negative", func(p *WorkerPlan) { p.Shard.In[0].Slots[0] = -1 }},
	}
	c := dialCtrl(t, w.Addr())
	for i, tc := range cases {
		plan := twoShardPlan(0, 1, peers) // a fresh partition each time
		tc.mutate(plan)
		nonce := uint32(10 + i)
		c.send(fSetup, nonce, mustPlan(t, plan))
		f := c.await(nonce, 2*time.Second)
		if f.typ != fError || len(f.payload) == 0 || f.payload[0] != ecBadRequest ||
			!strings.HasPrefix(string(f.payload[1:]), "dist: ") {
			t.Errorf("%s: reply type %d payload %q, want ecBadRequest", tc.name, f.typ, f.payload)
		}
	}
	if w.session(7) != nil {
		t.Fatal("a malformed plan left a session installed")
	}
	c.send(fPing, 1, nil)
	if f := c.await(1, 2*time.Second); f.typ != fPong {
		t.Fatalf("ping after malformed plans: frame type %d, want fPong", f.typ)
	}
}

func localRoute(p *WorkerPlan) int {
	return slices.IndexFunc(p.Shard.Route, func(rt int32) bool { return rt >= 0 })
}
func haloRoute(p *WorkerPlan) int {
	return slices.IndexFunc(p.Shard.Route, func(rt int32) bool { return rt < 0 })
}

// TestReinstallErrorSurfaces: when a worker rejects a request because
// it lost the session, and the re-install that should heal it fails
// too, the caller sees both errors — the rejection and the re-install
// failure's cause (here a draining worker) — not only the rejection.
func TestReinstallErrorSurfaces(t *testing.T) {
	for _, op := range []struct {
		name string
		run  func(s *Session) error
	}{
		{"run", func(s *Session) error { _, err := s.Run(context.Background(), RunOptions{}); return err }},
		{"update-weights", func(s *Session) error { return s.UpdateWeights(make([]int64, s.N()), s.Params()) }},
	} {
		t.Run(op.name, func(t *testing.T) {
			workers := make([]*Worker, 2)
			addrs := make([]string, 2)
			for i := range workers {
				workers[i] = NewWorker()
				workers[i].FrameTimeout = 2 * time.Second
				if err := workers[i].Listen("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
				go workers[i].Serve()
				defer workers[i].Close()
				addrs[i] = workers[i].Addr()
			}
			// The first control connection to worker 0 dies on its third
			// write (hello and setup go through), so the request after
			// the install redials — the redial the restart race causes.
			c := NewCoordinator(addrs)
			c.FrameTimeout = 2 * time.Second
			var hooked atomic.Bool
			c.ConnHook = func(conn net.Conn) net.Conn {
				if conn.RemoteAddr().String() == addrs[0] && hooked.CompareAndSwap(false, true) {
					return (&FaultPlan{CloseAfterWrites: 2}).Wrap(conn)
				}
				return conn
			}
			defer c.Close()
			g := graph.Grid(3, 4)
			graph.RandomWeights(g, 9, 1)
			s, err := c.CompileVC(g)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()

			// Worker 0 loses the session and starts draining, so it
			// rejects the request and refuses the re-install.
			workers[0].dropSession(s.id, errors.New("test: session lost"))
			workers[0].mu.Lock()
			workers[0].draining = true
			workers[0].mu.Unlock()

			err = op.run(s)
			if !errors.Is(err, errWorkerRejected) || !errors.Is(err, ErrWorkerDraining) {
				t.Fatalf("error %v: want the rejection joined with the re-install's cause", err)
			}
		})
	}
}
