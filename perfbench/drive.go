package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"tender/internal/serve"
)

// record is one request as the load generator saw it.
type record struct {
	req  serve.Request
	due  time.Time // when it was due; a closed-loop request is due when sent
	sent time.Time // when Generate was called
	done time.Time // when Generate returned
	res  serve.Result
	err  error
}

// ttft is time to first token measured from the due time, so a generator
// or server stall is charged to every request it delayed.
func (r record) ttft() time.Duration { return r.sent.Sub(r.due) + r.res.TTFT }

// late is how far behind its schedule the generator sent the request.
func (r record) late() time.Duration { return r.sent.Sub(r.due) }

// phase is one load phase: every request sent, indexed like the request
// list, and the measurement window.
type phase struct {
	recs   []record
	start  time.Time     // first send
	t0     time.Time     // window start (after the closed-loop warm-up)
	window time.Duration // window length
	end    time.Time     // last request returned
}

// send runs one request and records it.
func send(gen serve.Generator, req serve.Request, due time.Time) record {
	r := record{req: req, due: due, sent: time.Now()}
	r.res, r.err = gen.Generate(context.Background(), req)
	r.done = time.Now()
	return r
}

// runClosed drives a closed loop: clients goroutines each send the next
// request of reqs as soon as their previous one returns. With a nonzero
// window, clients stop sending once warm+window has elapsed; requests in
// flight then run to completion. With window 0 every request of reqs is
// sent. It returns when every sent request has returned.
func runClosed(gen serve.Generator, reqs []serve.Request, clients int, warm, window time.Duration) phase {
	recs := make([]record, len(reqs))
	start := time.Now()
	stop := start.Add(warm + window)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if window > 0 && !now.Before(stop) {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				recs[i] = send(gen, reqs[i], now)
			}
		}()
	}
	wg.Wait()
	n := min(int(next.Load()), len(reqs))
	p := phase{recs: recs[:n], start: start, t0: start.Add(warm), window: window}
	p.end = lastDone(p.recs)
	return p
}

// runOpen drives an open loop: request i is sent at start+due[i] whether
// or not earlier requests have returned. It returns when every request has
// returned.
func runOpen(gen serve.Generator, reqs []serve.Request, due []time.Duration, window time.Duration) phase {
	recs := make([]record, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reqs {
		at := start.Add(due[i])
		time.Sleep(time.Until(at))
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = send(gen, reqs[i], at)
		}()
	}
	wg.Wait()
	p := phase{recs: recs, start: start, t0: start, window: window}
	p.end = lastDone(recs)
	return p
}

func lastDone(recs []record) time.Time {
	var end time.Time
	for _, r := range recs {
		if r.done.After(end) {
			end = r.done
		}
	}
	return end
}

// measured returns the requests due inside the window: the ones the
// latency, SLO and failure metrics describe.
func (p phase) measured() []record {
	var out []record
	for _, r := range p.recs {
		if !r.due.Before(p.t0) && r.due.Before(p.t0.Add(p.window)) {
			out = append(out, r)
		}
	}
	return out
}

// windowTokS is output tokens of requests that completed inside the window,
// per second of window.
func (p phase) windowTokS() float64 {
	var tok int
	hi := p.t0.Add(p.window)
	for _, r := range p.recs {
		if r.err == nil && !r.done.Before(p.t0) && !r.done.After(hi) {
			tok += len(r.res.Tokens)
		}
	}
	return float64(tok) / p.window.Seconds()
}

// spanTokS is output tokens of every request per second from the first
// send to the last return: the rate two replays of the same requests are
// compared by.
func (p phase) spanTokS() float64 {
	var tok int
	for _, r := range p.recs {
		tok += len(r.res.Tokens)
	}
	return float64(tok) / p.end.Sub(p.start).Seconds()
}
