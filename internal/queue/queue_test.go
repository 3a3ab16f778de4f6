package queue

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func twoCore(t *testing.T) *sim.Machine {
	t.Helper()
	return sim.MustNew(sim.Config{Cores: 2})
}

func TestFIFOOrder(t *testing.T) {
	m := twoCore(t)
	q := New[int](Config{Capacity: 16})
	var got []int
	m.MustSpawn(0, func(c *sim.Core) {
		for i := 0; i < 10; i++ {
			q.Push(c, i)
		}
		q.Close()
	})
	m.MustSpawn(1, func(c *sim.Core) {
		for {
			v, ok := q.Pop(c)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	m.Wait()
	if len(got) != 10 {
		t.Fatalf("received %d items, want 10", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d; FIFO violated", i, v)
		}
	}
}

func TestPopAdvancesConsumerClockPastArrival(t *testing.T) {
	m := twoCore(t)
	q := New[int](Config{LatencyCycles: 140})
	var pushTS, popTS uint64
	m.MustSpawn(0, func(c *sim.Core) {
		c.Exec(10_000) // producer is far ahead
		q.Push(c, 1)
		pushTS = c.Now()
		q.Close()
	})
	m.MustSpawn(1, func(c *sim.Core) {
		if _, ok := q.Pop(c); !ok {
			t.Error("pop failed")
		}
		popTS = c.Now()
	})
	m.Wait()
	if popTS < pushTS+140 {
		t.Errorf("consumer clock %d before arrival %d+140; causality violated", popTS, pushTS)
	}
}

func TestPopDoesNotRewindFastConsumer(t *testing.T) {
	m := twoCore(t)
	q := New[int](Config{LatencyCycles: 140, PopUops: 40})
	var popTS uint64
	m.MustSpawn(0, func(c *sim.Core) {
		q.Push(c, 1) // pushed at a small timestamp
		q.Close()
	})
	m.MustSpawn(1, func(c *sim.Core) {
		c.Exec(50_000) // consumer is far ahead
		q.Pop(c)
		popTS = c.Now()
	})
	m.Wait()
	if popTS != 50_000+40 {
		t.Errorf("fast consumer clock = %d, want 50040 (own clock + pop cost)", popTS)
	}
}

func TestPushChargesProducer(t *testing.T) {
	m := twoCore(t)
	q := New[int](Config{PushUops: 40})
	c := m.Core(0)
	q.Push(c, 1)
	if c.Now() != 40 {
		t.Errorf("push cost = %d cycles, want 40", c.Now())
	}
}

func TestPopAfterCloseDrains(t *testing.T) {
	m := twoCore(t)
	q := New[int](Config{})
	c := m.Core(0)
	q.Push(c, 7)
	q.Close()
	d := m.Core(1)
	if v, ok := q.Pop(d); !ok || v != 7 {
		t.Errorf("drain pop = (%d,%v), want (7,true)", v, ok)
	}
	if _, ok := q.Pop(d); ok {
		t.Error("pop succeeded on closed empty ring")
	}
}

func TestPopWaitLeavesClockAlone(t *testing.T) {
	m := twoCore(t)
	q := New[int](Config{LatencyCycles: 140, PopUops: 40})
	p := m.Core(0)
	p.Exec(1_000)
	q.Push(p, 7)
	q.Close()

	c := m.Core(1)
	v, arrival, ok := q.PopWait(c)
	if !ok || v != 7 {
		t.Fatalf("PopWait = (%d,%v)", v, ok)
	}
	if c.Now() != 0 {
		t.Errorf("PopWait advanced the consumer clock to %d", c.Now())
	}
	// Arrival is the push timestamp plus wire latency; the caller decides
	// how to spend the wait (spin, in DPDK's case).
	if want := uint64(1_040 + 140); arrival != want {
		t.Errorf("arrival = %d, want %d", arrival, want)
	}
	if q.PopCostUops() != 40 {
		t.Errorf("PopCostUops = %d", q.PopCostUops())
	}
	if _, _, ok := q.PopWait(c); ok {
		t.Error("PopWait succeeded on drained closed ring")
	}
}

func TestDefaults(t *testing.T) {
	q := New[int](Config{})
	if q.Cap() != DefaultConfig().Capacity {
		t.Errorf("capacity = %d, want default %d", q.Cap(), DefaultConfig().Capacity)
	}
	if q.Len() != 0 {
		t.Errorf("new ring Len = %d", q.Len())
	}
}

// Property: for any push/pop interleaving driven by real goroutines, values
// arrive in FIFO order and every consumer timestamp is >= the corresponding
// producer timestamp + latency (causal), and timestamps are deterministic
// across two identical runs.
func TestQuickCausalDeterministicPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type result struct {
		vals []int
		ts   []uint64
	}
	run := func(burst []uint8) result {
		m := sim.MustNew(sim.Config{Cores: 2})
		q := New[int](Config{Capacity: 4, LatencyCycles: 100})
		var res result
		m.MustSpawn(0, func(c *sim.Core) {
			for i, b := range burst {
				c.Exec(uint64(b) + 1)
				q.Push(c, i)
			}
			q.Close()
		})
		m.MustSpawn(1, func(c *sim.Core) {
			for {
				v, ok := q.Pop(c)
				if !ok {
					return
				}
				res.vals = append(res.vals, v)
				res.ts = append(res.ts, c.Now())
			}
		})
		m.Wait()
		return res
	}
	prop := func(burst []uint8) bool {
		if len(burst) > 64 {
			burst = burst[:64]
		}
		r1 := run(burst)
		r2 := run(burst)
		if len(r1.vals) != len(burst) {
			return false
		}
		for i := range r1.vals {
			if r1.vals[i] != i { // FIFO
				return false
			}
			if i > 0 && r1.ts[i] < r1.ts[i-1] { // consumer clock monotone
				return false
			}
			if r1.ts[i] != r2.ts[i] { // deterministic virtual time
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}
