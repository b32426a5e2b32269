package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The host-speed reference. This guest's speed drifts by 20–30 % over
// minutes with no steal reported, all four workloads together (see
// AA.md). hostRef is a fixed kernel owned by the harness — scan, sort,
// hash, dependent loads over a buffer larger than the caches, loopback
// round trips: the kinds of work the server does and none of the
// server's code — timed beside every round and every set-up. It
// drifts with the host, so a round's times can be read against the
// speed the host had at that moment: every time-based end-to-end metric
// is reported at reference speed, measured × refNominal / reference
// time. A change to the server moves the measured time and not the
// reference, so gains and regressions show in full.
type hostRef struct {
	lanes [refLanes]*refLane
	conn  net.Conn // loopback echo, client side
	ln    net.Listener
	done  chan struct{}
}

const (
	// refLanes matches the guest's two vCPUs, which the server's fan-out
	// also fills.
	refLanes = 2

	// refNominal is the kernel's time on the reference box in a quiet
	// phase; it only fixes the scale, so that normalised numbers read
	// like the raw ones.
	refNominal = 15 * time.Millisecond

	refEchoes = 100
)

type refLane struct {
	text  []byte
	ints  []int
	work  []int
	keys  []string
	chain []uint32 // a random cycle: chain[i] is the next index
}

func newHostRef() (*hostRef, error) {
	h := &hostRef{done: make(chan struct{})}
	for l := range h.lanes {
		r := rand.New(rand.NewSource(int64(42 + l)))
		ln := &refLane{
			text:  make([]byte, 4<<20),
			ints:  make([]int, 40_000),
			keys:  make([]string, 48_000),
			chain: make([]uint32, 4<<20), // 16 MB: past the caches
		}
		for i := range ln.text {
			ln.text[i] = byte('a' + r.Intn(26))
		}
		for i := range ln.ints {
			ln.ints[i] = r.Int()
		}
		for i := range ln.keys {
			ln.keys[i] = strconv.Itoa(r.Int())
		}
		perm := r.Perm(len(ln.chain))
		for i, p := range perm {
			ln.chain[p] = uint32(perm[(i+1)%len(perm)])
		}
		ln.work = make([]int, len(ln.ints))
		h.lanes[l] = ln
	}
	var err error
	if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("host reference: %w", err)
	}
	go h.echo()
	if h.conn, err = net.Dial("tcp", h.ln.Addr().String()); err != nil {
		h.ln.Close()
		return nil, fmt.Errorf("host reference: %w", err)
	}
	return h, nil
}

// echo serves the one loopback connection until close.
func (h *hostRef) echo() {
	defer close(h.done)
	c, err := h.ln.Accept()
	if err != nil {
		return
	}
	defer c.Close()
	buf := make([]byte, 64)
	for {
		n, err := c.Read(buf)
		if err != nil {
			return
		}
		if _, err := c.Write(buf[:n]); err != nil {
			return
		}
	}
}

func (h *hostRef) close() {
	h.conn.Close()
	h.ln.Close()
	<-h.done
}

// sink keeps the kernel's results alive.
var sink int

func (ln *refLane) run() int {
	n := bytes.Count(ln.text, []byte("qzj"))
	copy(ln.work, ln.ints)
	sort.Ints(ln.work)
	m := make(map[string]int, len(ln.keys))
	for i, k := range ln.keys {
		m[k] += i
	}
	at := uint32(0)
	for i := 0; i < 20_000; i++ {
		at = ln.chain[at]
	}
	return n + ln.work[0] + len(m) + int(at)
}

// sample runs the kernel once — both lanes side by side, then the
// loopback round trips — and returns how long it took.
func (h *hostRef) sample() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	var out [refLanes]int
	for l, ln := range h.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[l] = ln.run()
		}()
	}
	wg.Wait()
	var msg [32]byte
	for i := 0; i < refEchoes; i++ {
		if _, err := h.conn.Write(msg[:]); err != nil {
			break // a broken echo only shortens the kernel; the run's own checks do not depend on it
		}
		if _, err := io.ReadFull(h.conn, msg[:]); err != nil {
			break
		}
	}
	sink += out[0] + out[1]
	return time.Since(start)
}

// speed returns the host's current slowness relative to the reference
// box: reference time / refNominal. Disturbance only ever lengthens a
// sample, so the quicker of two is the better reading.
func (h *hostRef) speed() float64 {
	return float64(min(h.sample(), h.sample())) / float64(refNominal)
}
