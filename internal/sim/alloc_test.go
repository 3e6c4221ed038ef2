package sim

import (
	"testing"

	"anoncover/internal/graph"
)

// quietBcast broadcasts a pre-boxed message and folds what it hears
// without allocating, so any steady-state allocation measured around it
// belongs to the engine, not the program.
type quietBcast struct {
	msg Message
	acc uint64
}

func (p *quietBcast) Init(env Env)       {}
func (p *quietBcast) Send(r int) Message { return p.msg }
func (p *quietBcast) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		p.acc += m.(uint64)
	}
}
func (p *quietBcast) Output() any { return p.acc }

// quietSleeper is a Sleeper: it speaks only in rounds congruent to
// its phase mod 3 and sleeps in between, so a run mixes due nodes,
// sleeping nodes and nodes woken by a neighbour of another phase.
type quietSleeper struct {
	quietBcast
	phase int
}

func (p *quietSleeper) Send(r int) Message {
	if r%3 != p.phase {
		return nil
	}
	return p.msg
}

func (p *quietSleeper) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		if m != nil {
			p.acc += m.(uint64)
		}
	}
}

func (p *quietSleeper) SleepUntil(r int) int { return r + 1 + (p.phase-(r+1)%3+3)%3 }

// quietWire rides the wire path: one-word lanes, no per-round work
// beyond the fold, so any steady-state allocation belongs to the
// engine's lane plumbing.
type quietWire struct {
	quietPort
}

func (p *quietWire) WireWords(r int) int { return 1 }

func (p *quietWire) SendWire(r int, out []uint64) (int64, int64, bool) {
	for i := range out {
		out[i] = 1 << 40
	}
	return int64(len(out)), 0, true
}

func (p *quietWire) RecvWire(r int, in []uint64) {
	for _, v := range in {
		p.acc += v
	}
}

// quietPort is the port-model sibling; it reuses its outgoing slice, as
// the PortProgram contract allows.
type quietPort struct {
	out []Message
	acc uint64
}

func (p *quietPort) Init(env Env) {
	p.out = make([]Message, env.Degree)
	m := Message(uint64(1 << 40))
	for i := range p.out {
		p.out[i] = m
	}
}
func (p *quietPort) Send(r int) []Message { return p.out }
func (p *quietPort) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		p.acc += m.(uint64)
	}
}
func (p *quietPort) Output() any { return p.acc }

// quietPortSleeper is quietPort as a Sleeper: like quietSleeper it
// speaks only in rounds congruent to its phase mod 3.  Its wire form
// sends one-word lanes stamped with the round, and it folds only lanes
// stamped with the current one.
type quietPortSleeper struct {
	quietPort
	silent []Message
	phase  int
}

func (p *quietPortSleeper) Send(r int) []Message {
	if r%3 != p.phase {
		return p.silent
	}
	return p.out
}

func (p *quietPortSleeper) Recv(r int, msgs []Message) {
	for _, m := range msgs {
		if m != nil {
			p.acc += m.(uint64)
		}
	}
}

func (p *quietPortSleeper) SleepUntil(r int) int { return r + 1 + (p.phase-(r+1)%3+3)%3 }

func (p *quietPortSleeper) WireWords(r int) int { return 1 }

func (p *quietPortSleeper) SendWire(r int, out []uint64) (int64, int64, bool) {
	if r%3 != p.phase {
		clear(out)
		return 0, 0, true
	}
	for i := range out {
		out[i] = uint64(r)
	}
	return int64(len(out)), 0, true
}

func (p *quietPortSleeper) RecvWire(r int, in []uint64) {
	for _, v := range in {
		if v == uint64(r) {
			p.acc += v
		}
	}
}

// allocsPerRound measures the engine's marginal heap allocations per
// additional round by differencing a short and a long run: fixed
// per-run setup cost (inbox, worker pool, counters) cancels out.
func allocsPerRound(t *testing.T, run func(rounds int)) float64 {
	t.Helper()
	const extra = 64
	short := testing.AllocsPerRun(5, func() { run(1) })
	long := testing.AllocsPerRun(5, func() { run(1 + extra) })
	return (long - short) / extra
}

// TestEngineAllocsPerRound locks in the kernel's steady state: once the
// inboxes and worker pool exist, running more rounds must not allocate.
// The seed engine spawned 2×workers goroutines per round (measured ~9
// allocs/round at 4 workers, broadcast); the rewrite's budget is ~0, with
// a small tolerance for runtime noise.
func TestEngineAllocsPerRound(t *testing.T) {
	g := graph.RandomRegular(256, 4, 1)
	cases := []struct {
		name   string
		opt    Options
		budget float64
	}{
		{"sequential", Options{Engine: Sequential}, 0.5},
		// The parallel-* rows keep the labels of the worker-pool engine
		// that Sharded absorbed and run Sharded at the same worker count.
		{"parallel-2", Options{Engine: Sharded, Workers: 2}, 2},
		{"parallel-4", Options{Engine: Sharded, Workers: 4}, 2},
		{"sharded-2", Options{Engine: Sharded, Workers: 2}, 2},
		{"sharded-4", Options{Engine: Sharded, Workers: 4}, 2},
		// Tracing must not break the steady state: the per-round and
		// per-phase slices are preallocated at run start, so recording a
		// round is appends into existing capacity.
		{"sequential-traced", Options{Engine: Sequential, Trace: true}, 0.5},
		{"sharded-4-traced", Options{Engine: Sharded, Workers: 4, Trace: true}, 2},
	}
	// Each engine runs on its default delivery path (wire lanes for
	// quietWire) and forced boxed, which broadcast runs ignore; the
	// 0-allocs steady state must hold on every one of them.
	for _, c := range cases {
		for _, boxed := range []bool{false, true} {
			opt := c.opt
			name := c.name
			if boxed {
				opt.NoWire = true
				name += "-boxed"
			}
			t.Run("broadcast/"+name, func(t *testing.T) {
				progs := make([]BroadcastProgram, g.N())
				for v := range progs {
					progs[v] = &quietBcast{msg: uint64(3)}
				}
				got := allocsPerRound(t, func(rounds int) {
					RunBroadcast(g, progs, rounds, opt)
				})
				t.Logf("allocs/round = %.2f", got)
				if got > c.budget {
					t.Errorf("broadcast %s: %.2f allocs/round, budget %.2f", name, got, c.budget)
				}
			})
			t.Run("port/"+name, func(t *testing.T) {
				progs := make([]PortProgram, g.N())
				for v := range progs {
					q := &quietPort{}
					q.Init(Env{Degree: g.Deg(v)})
					progs[v] = q
				}
				got := allocsPerRound(t, func(rounds int) {
					RunPort(g, progs, rounds, opt)
				})
				t.Logf("allocs/round = %.2f", got)
				if got > c.budget {
					t.Errorf("port %s: %.2f allocs/round, budget %.2f", name, got, c.budget)
				}
			})
			if boxed {
				continue // quietWire's wire path has no boxed variant of interest
			}
			if c.name == "sequential" || c.name == "sharded-2" {
				t.Run("broadcast-sleeping/"+name, func(t *testing.T) {
					progs := make([]BroadcastProgram, g.N())
					for v := range progs {
						progs[v] = &quietSleeper{quietBcast: quietBcast{msg: uint64(3)}, phase: v % 3}
					}
					got := allocsPerRound(t, func(rounds int) {
						RunBroadcast(g, progs, rounds, opt)
					})
					t.Logf("allocs/round = %.2f", got)
					if got > c.budget {
						t.Errorf("sleeping broadcast %s: %.2f allocs/round, budget %.2f", name, got, c.budget)
					}
				})
			}
			if c.name == "sequential" || c.name == "sharded-2" {
				for _, wire := range []bool{true, false} {
					pname := "port-sleeping/" + name
					if !wire {
						pname += "-boxed"
					}
					t.Run(pname, func(t *testing.T) {
						progs := make([]PortProgram, g.N())
						for v := range progs {
							q := &quietPortSleeper{silent: make([]Message, g.Deg(v)), phase: v % 3}
							q.Init(Env{Degree: g.Deg(v)})
							progs[v] = q
						}
						popt := opt
						popt.NoWire = !wire
						got := allocsPerRound(t, func(rounds int) {
							RunPort(g, progs, rounds, popt)
						})
						t.Logf("allocs/round = %.2f", got)
						if got > c.budget {
							t.Errorf("sleeping port %s: %.2f allocs/round, budget %.2f", pname, got, c.budget)
						}
					})
				}
			}
			t.Run("wireport/"+name, func(t *testing.T) {
				progs := make([]PortProgram, g.N())
				for v := range progs {
					q := &quietWire{}
					q.Init(Env{Degree: g.Deg(v)})
					progs[v] = q
				}
				got := allocsPerRound(t, func(rounds int) {
					RunPort(g, progs, rounds, opt)
				})
				t.Logf("allocs/round = %.2f", got)
				if got > c.budget {
					t.Errorf("wireport %s: %.2f allocs/round, budget %.2f", name, got, c.budget)
				}
			})
		}
	}
}
