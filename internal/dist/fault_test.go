package dist

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"anoncover/internal/graph"
	"anoncover/internal/shard"
	"anoncover/internal/sim"
)

// sinkConn is a write-capturing net.Conn for exercising faultConn
// without sockets.
type sinkConn struct {
	mu     sync.Mutex
	data   bytes.Buffer
	closed bool
}

func (c *sinkConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.data.Write(b)
}
func (c *sinkConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}
func (c *sinkConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.data.Bytes()...)
}
func (c *sinkConn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}
func (c *sinkConn) Read([]byte) (int, error)         { return 0, errors.New("sink") }
func (c *sinkConn) LocalAddr() net.Addr              { return nil }
func (c *sinkConn) RemoteAddr() net.Addr             { return nil }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// TestFaultDropDeterminism: identically seeded plans replay the exact
// same drop pattern — the property that makes a chaos test reproduce
// one failure interleaving instead of a new one per run.
func TestFaultDropDeterminism(t *testing.T) {
	pattern := func(seed int64) []byte {
		sink := &sinkConn{}
		fp := &FaultPlan{Seed: seed, DropProb: 0.4}
		c := fp.Wrap(sink)
		for i := 0; i < 200; i++ {
			if n, err := c.Write([]byte{byte(i)}); n != 1 || err != nil {
				t.Fatalf("write %d: n=%d err=%v (drops must report success)", i, n, err)
			}
		}
		return sink.bytes()
	}
	a, b := pattern(7), pattern(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different drop patterns")
	}
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("delivered %d of 200 writes; want a strict subset", len(a))
	}
	if bytes.Equal(a, pattern(8)) {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

// TestFaultDropEveryNth: the counted drop swallows exactly every Nth
// write, 1-based.
func TestFaultDropEveryNth(t *testing.T) {
	sink := &sinkConn{}
	fp := &FaultPlan{DropEveryNth: 3}
	c := fp.Wrap(sink)
	for i := 1; i <= 9; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	want := []byte{1, 2, 4, 5, 7, 8}
	if got := sink.bytes(); !bytes.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestFaultPartition: a cut partition black-holes writes (success
// reported, nothing delivered, connection left open) across every
// connection sharing it; healing restores delivery.
func TestFaultPartition(t *testing.T) {
	part := &Partition{}
	fp := &FaultPlan{Partition: part}
	s1, s2 := &sinkConn{}, &sinkConn{}
	c1, c2 := fp.Wrap(s1), fp.Wrap(s2)

	part.Cut()
	for _, c := range []net.Conn{c1, c2} {
		if n, err := c.Write([]byte("x")); n != 1 || err != nil {
			t.Fatalf("partitioned write: n=%d err=%v (want silent success)", n, err)
		}
	}
	if len(s1.bytes())+len(s2.bytes()) != 0 {
		t.Fatal("partitioned writes were delivered")
	}
	if s1.isClosed() || s2.isClosed() {
		t.Fatal("partition closed a connection; it must only starve it")
	}

	part.Heal()
	if _, err := c1.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s1.bytes(), []byte("y")) {
		t.Fatalf("post-heal delivery: got %q", s1.bytes())
	}
}

// TestFaultCloseAfterWrites: the connection dies after the configured
// number of delivered writes, and stays dead.
func TestFaultCloseAfterWrites(t *testing.T) {
	sink := &sinkConn{}
	fp := &FaultPlan{CloseAfterWrites: 2}
	c := fp.Wrap(sink)
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if _, err := c.Write([]byte{9}); !errors.Is(err, errFaultClosed) {
		t.Fatalf("third write: err=%v, want errFaultClosed", err)
	}
	if !sink.isClosed() {
		t.Fatal("fault close did not close the underlying connection")
	}
	if _, err := c.Write([]byte{9}); !errors.Is(err, errFaultClosed) {
		t.Fatalf("write after close: err=%v, want errFaultClosed", err)
	}
	if got := sink.bytes(); len(got) != 2 {
		t.Fatalf("delivered %d writes, want 2", len(got))
	}
}

// TestWorkerStaleGeneration drives a worker's install-generation
// protocol at the frame level: a plan older than the held one is
// rejected as stale, and a retransmit of the held generation acks
// idempotently instead of tearing the session down — the behaviors a
// reconnecting worker and a retrying coordinator depend on.
func TestWorkerStaleGeneration(t *testing.T) {
	w := NewWorker()
	if err := w.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()

	g := graph.Grid(3, 3)
	st := shard.BuildK(g.Flat(), 1)
	mkPlan := func(gen uint64) *WorkerPlan {
		plan := &WorkerPlan{
			Session: 42, Gen: gen, Algo: "edgepack",
			Workers: 1, Self: 0, Peers: []string{w.Addr()},
			Params: sim.GraphParams(g),
			Shard:  st.Shards[0],
		}
		plan.Weights = make([]int64, len(plan.Shard.Nodes))
		plan.Kinds = make([]uint8, len(plan.Shard.Nodes))
		for i := range plan.Weights {
			plan.Weights[i] = 1
		}
		return plan
	}

	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var mx Metrics
	fc := newFrameConn(conn, 2*time.Second, &mx)
	defer fc.close()
	if err := fc.write(&frame{typ: fHello}); err != nil {
		t.Fatal(err)
	}
	setup := func(nonce uint32, gen uint64) frame {
		t.Helper()
		payload, err := encodePlan(mkPlan(gen))
		if err != nil {
			t.Fatal(err)
		}
		if err := fc.write(&frame{typ: fSetup, run: nonce, payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := fc.readTimeout(2 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if f.run != nonce {
			t.Fatalf("reply nonce %d for request %d", f.run, nonce)
		}
		return f
	}

	if f := setup(1, 2); f.typ != fReady {
		t.Fatalf("install at gen 2: frame type %d, want fReady", f.typ)
	}
	f := setup(2, 1)
	if f.typ != fError {
		t.Fatalf("stale install: frame type %d, want fError", f.typ)
	}
	serr := codeError(f.payload)
	if !errors.Is(serr, errWorkerRejected) {
		t.Fatalf("stale install error %v, want errWorkerRejected (retrying cannot help)", serr)
	}
	if !strings.Contains(serr.Error(), "stale session generation") {
		t.Fatalf("stale install error %q lost its reason", serr)
	}
	if transientErr(serr) {
		t.Fatal("a stale-generation rejection must not be retried")
	}
	if f := setup(3, 2); f.typ != fReady {
		t.Fatalf("retransmit of held gen: frame type %d, want idempotent fReady", f.typ)
	}
}
