package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// shot is one open-loop request: when it was due, when a worker sent
// it, when it completed, and whether it succeeded.
type shot struct {
	due, sent, done time.Time
	// slept is set when the worker waited for the due time; only then
	// does sent-due measure the generator's own lateness rather than a
	// backlog of earlier requests.
	slept bool
	ok    bool
}

// openLoop issues n requests at a fixed rate from workers goroutines,
// each holding at most one request (and so one connection) at a time.
// Request i is due at start + i/rate; no tick is ever dropped: when
// every worker is busy, due requests wait and their latency, timed from
// the due time, includes the wait. do reports whether request i
// succeeded.
func openLoop(ctx context.Context, rate float64, n, workers int, do func(ctx context.Context, i int) bool) []shot {
	shots := make([]shot, n)
	interval := float64(time.Second) / rate
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				s := &shots[i]
				s.due = start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(s.due); d > 0 {
					timer.Reset(d)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
					s.slept = true
				}
				s.sent = time.Now()
				s.ok = do(ctx, i)
				s.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return shots
}

// rateStats summarizes one open-loop rate.
type rateStats struct {
	latMS       []float64 // from due time; a failed or unsent request is +Inf
	ok, failed  int
	lateMS      []float64 // generator lateness of requests that waited for their due time
	backlogged  bool
	goodput     float64 // requests completed within the limit, per second
	withinLimit int
}

// summarize turns shots into latency samples against limitMS. A rate
// counts as backlogged when the requests of its last tenth were sent, on
// median, more than half the limit after they were due: the queue was
// still growing when the rate ended.
func summarize(shots []shot, limitMS float64) rateStats {
	var st rateStats
	var tail []float64
	var first, last time.Time
	for i, s := range shots {
		if s.sent.IsZero() {
			st.failed++
			st.latMS = append(st.latMS, math.Inf(1))
			continue
		}
		if first.IsZero() || s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
		lat := ms(s.done.Sub(s.due))
		if !s.ok {
			st.failed++
			lat = math.Inf(1)
		} else {
			st.ok++
			if lat <= limitMS {
				st.withinLimit++
			}
		}
		st.latMS = append(st.latMS, lat)
		if s.slept {
			st.lateMS = append(st.lateMS, ms(s.sent.Sub(s.due)))
		}
		if i >= len(shots)-len(shots)/10 {
			tail = append(tail, ms(s.sent.Sub(s.due)))
		}
	}
	st.backlogged = len(tail) > 0 && median(tail) > limitMS/2
	if span := last.Sub(first).Seconds(); span > 0 {
		st.goodput = float64(st.withinLimit) / span
	}
	return st
}
