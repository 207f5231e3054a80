package ns

// pool.go implements the persistent element-loop worker pool of the
// shared-memory Machine, the reproduction's dual-processor mode. A pool keeps
// W-1 long-lived workers, each pinned to one contiguous element chunk computed
// once at construction, and wakes them with a buffered-channel send —
// allocation-free in steady state, and deterministic: the (element, worker)
// assignment never depends on scheduling, so disjoint-block loops produce
// bitwise-identical fields for any worker count.

import (
	"runtime"
	"sync"
)

// elemPool runs an element loop over fixed contiguous chunks. Worker 0 is
// the calling goroutine; workers 1..len(chunks)-1 are long-lived goroutines
// parked on their wake channel.
type elemPool struct {
	chunks [][2]int        // per-worker [e0, e1) element ranges
	wake   []chan struct{} // one per extra worker (chunk index i+1)
	wg     sync.WaitGroup  // the extra workers still in the current run
	live   sync.WaitGroup  // the extra workers not yet returned
	fn     func(e, w int)  // current loop body
}

// newElemPool partitions k elements into up to `workers` contiguous chunks
// and starts the extra workers. It returns nil when that leaves fewer than
// two chunks: the loop is serial and no goroutine exists.
func newElemPool(k, workers int) *elemPool {
	p := &elemPool{}
	chunk := (k + workers - 1) / workers
	for w := 0; w < workers; w++ {
		e0 := w * chunk
		e1 := e0 + chunk
		if e1 > k {
			e1 = k
		}
		if e0 >= e1 {
			break
		}
		p.chunks = append(p.chunks, [2]int{e0, e1})
	}
	if len(p.chunks) < 2 {
		return nil
	}
	p.wake = make([]chan struct{}, len(p.chunks)-1)
	p.live.Add(len(p.wake))
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(p.wake[i], i+1)
	}
	return p
}

// worker is the long-lived loop of one extra worker; it returns when close
// closes its wake channel.
func (p *elemPool) worker(wake chan struct{}, w int) {
	defer p.live.Done()
	e0, e1 := p.chunks[w][0], p.chunks[w][1]
	for range wake {
		fn := p.fn
		for e := e0; e < e1; e++ {
			fn(e, w)
		}
		p.wg.Done()
	}
}

// run executes fn over all elements: the extra workers take chunks 1..W-1
// while the caller runs chunk 0, then all join. The channel send/receive
// pairs order the p.fn write before every worker read, and the WaitGroup
// orders all worker writes before run returns.
func (p *elemPool) run(fn func(e, w int)) {
	p.fn = fn
	p.wg.Add(len(p.wake))
	for _, ch := range p.wake {
		ch <- struct{}{}
	}
	for e, e1 := p.chunks[0][0], p.chunks[0][1]; e < e1; e++ {
		fn(e, 0)
	}
	p.wg.Wait()
}

// parallel reports whether dispatching to the pool can help right now: it
// needs more than one scheduling slot. At GOMAXPROCS=1 the chunks would run
// sequentially anyway, so the caller inlines the serial loop and pays zero
// coordination overhead (results are bitwise identical either way — the
// parallel path exists purely for speed).
func (p *elemPool) parallel() bool {
	return p != nil && runtime.GOMAXPROCS(0) > 1
}

// close stops the workers and returns once they have. It must not run
// concurrently with run, and the pool must not run again afterwards.
func (p *elemPool) close() {
	for _, ch := range p.wake {
		close(ch)
	}
	p.live.Wait()
}
