package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Arrivals returns a seeded Poisson arrival schedule at rate per second
// over d: the offsets from the start at which each request is due.
func Arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// Timing is what the open-loop generator observed for one request.
type Timing struct {
	// Due is when the request was scheduled, relative to the start.
	Due time.Duration
	// Start is when it was actually sent; Latency runs from Due to the
	// response, so it includes any wait for a free connection.
	Start, Latency time.Duration
	// Lag is how late the generator itself sent the request: the time
	// from the later of its due time and its connection becoming free
	// to the send.
	Lag time.Duration
	Err error
}

// OpenLoop sends len(due) requests on conns connections, request i no
// earlier than due[i] after the start, in order. A request due while
// every connection is busy waits for one, and that wait counts in its
// latency. send(c, i) performs request i on connection c.
func OpenLoop(ctx context.Context, due []time.Duration, conns int, send func(conn, i int) error) []Timing {
	out := make([]Timing, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				free := time.Since(start)
				if wait := due[i] - free; wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				sent := time.Since(start)
				err := send(c, i)
				done := time.Since(start)
				out[i] = Timing{
					Due: due[i], Start: sent, Latency: done - due[i],
					Lag: sent - max(due[i], free), Err: err,
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// BacklogGrows reports whether the requests not yet sent at each due
// time grew over the second half of the run: the mean backlog over its
// last quarter exceeds that over its third quarter by more than
// backlogSlack requests. A sustained overload grows the backlog by a
// fixed share of the rate every second, far past the slack; bursts of a
// Poisson stream on two connections stay within it.
func BacklogGrows(ts []Timing) bool {
	n := len(ts)
	if n < 8 {
		return false
	}
	starts := make([]time.Duration, n)
	for i, t := range ts {
		starts[i] = t.Start
	}
	sort.Slice(starts, func(a, b int) bool { return starts[a] < starts[b] })
	backlog := func(i int) float64 {
		// Requests due at or before ts[i].Due that had not started then.
		sent := sort.Search(n, func(k int) bool { return starts[k] > ts[i].Due })
		return math.Max(0, float64(i+1-sent))
	}
	mean := func(lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += backlog(i)
		}
		return s / float64(hi-lo)
	}
	return mean(3*n/4, n) > mean(n/2, 3*n/4)+backlogSlack
}

const backlogSlack = 10
