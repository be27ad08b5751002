package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"gmfnet/internal/admitd"
	"gmfnet/internal/core"
	"gmfnet/internal/network"
	"gmfnet/internal/workload"
)

// countingConn counts the bytes read and written on a connection.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// sent is one op written to the daemon and not yet answered.
type sent struct {
	id    int64
	idx   int // trace op index, -1 for sub and stats ops
	start time.Time
	ts    int64 // tracer clock at the write
	timed bool
}

// wireClient writes ops to one daemon connection with at most window
// of them unanswered; its reader goroutine matches replies to ops in
// order (the daemon answers one connection's ops in the order it read
// them) and records events.
type wireClient struct {
	conn *countingConn
	bw   *bufio.Writer
	enc  *json.Encoder
	dec  *json.Decoder
	rec  *record
	tr   *tracer

	sem  chan struct{} // unanswered-op slots
	fifo chan sent     // unanswered ops, in write order
	done chan struct{}
	next int64

	// Reader-owned until done is closed.
	lat    []time.Duration
	failed int64
	stats  *admitd.Stats
	errMsg string
}

// dial connects and performs the hello handshake.
func dial(addr string, topo workload.TopoSpec, rec *record, window int, tr *tracer) (*wireClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireClient{conn: &countingConn{Conn: nc}, rec: rec, tr: tr,
		sem:  make(chan struct{}, window),
		fifo: make(chan sent, window), // the semaphore bounds it
		done: make(chan struct{})}
	c.bw = bufio.NewWriter(c.conn)
	c.enc = json.NewEncoder(c.bw)
	c.dec = json.NewDecoder(bufio.NewReader(c.conn))
	if err := c.enc.Encode(admitd.Hello{V: admitd.ProtocolVersion, Topo: topo}); err == nil {
		err = c.bw.Flush()
	}
	var ack admitd.Msg
	if err == nil {
		err = c.dec.Decode(&ack)
	}
	if err == nil && ack.Kind != admitd.KindHello {
		err = fmt.Errorf("hello refused: %s %s", ack.Kind, ack.Err)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("daemon hello: %w", err)
	}
	go c.read()
	return c, nil
}

// errReader reports a reader that stopped before every op was answered.
func (c *wireClient) errReader() error {
	if c.errMsg != "" {
		return fmt.Errorf("daemon wire: %s", c.errMsg)
	}
	return fmt.Errorf("daemon closed the connection with ops unanswered")
}

// send writes one op, blocking while the window is full.
func (c *wireClient) send(op workload.Op, idx int, timed bool) error {
	select {
	case c.sem <- struct{}{}:
	case <-c.done:
		return c.errReader()
	}
	c.next++
	op.ID = c.next
	c.fifo <- sent{id: op.ID, idx: idx, start: time.Now(), ts: c.tr.now(), timed: timed}
	if err := c.enc.Encode(&op); err != nil {
		return err
	}
	return c.bw.Flush()
}

// sync waits until every op written so far has been answered.
func (c *wireClient) sync() error {
	for i := 0; i < cap(c.sem); i++ {
		select {
		case c.sem <- struct{}{}:
		case <-c.done:
			return c.errReader()
		}
	}
	for i := 0; i < cap(c.sem); i++ {
		<-c.sem
	}
	return nil
}

func (c *wireClient) read() {
	defer close(c.done)
	for {
		var m admitd.Msg
		if err := c.dec.Decode(&m); err != nil {
			return
		}
		switch m.Kind {
		case admitd.KindEvent:
			c.rec.events++
			c.rec.lastEvent[m.Flow] = m.Residents
			continue
		case admitd.KindDrain:
			return
		case admitd.KindVerdict, admitd.KindStats, admitd.KindError:
		default:
			c.errMsg = fmt.Sprintf("unexpected %q message", m.Kind)
			return
		}
		f := <-c.fifo
		if m.ID != f.id {
			c.errMsg = fmt.Sprintf("reply for op %d while op %d is the oldest unanswered", m.ID, f.id)
			return
		}
		if f.timed {
			c.lat = append(c.lat, time.Since(f.start))
			if c.tr != nil {
				c.tr.record("admitd.op", f.id, -1, f.ts, c.tr.now())
			}
		}
		switch {
		case m.Kind == admitd.KindStats:
			c.stats = m.Stats
		case f.idx < 0:
		case m.Kind == admitd.KindError:
			c.rec.verdict[f.idx] = vFailed
			c.failed++
		case m.Verdict == admitd.VerdictAdmit || m.Verdict == admitd.VerdictOK:
			c.rec.verdict[f.idx] = vAdmit
		default:
			c.rec.verdict[f.idx] = vReject
		}
		<-c.sem
	}
}

// subscribedNames picks n distinct add-op names of the trace, seeded.
func subscribedNames(ops []workload.Op, n int, seed int64) []string {
	var adds []string
	for i := range ops {
		if ops[i].Op == "add" {
			adds = append(adds, ops[i].Name)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(adds), func(i, j int) { adds[i], adds[j] = adds[j], adds[i] })
	if n > len(adds) {
		n = len(adds)
	}
	return adds[:n]
}

// daemonSetup is the set-up of one daemon replay: the trace, a fresh
// admitd.Server listening on loopback TCP, and a connection that has
// subscribed its names.
type daemonSetup struct {
	topo         *network.Topology
	ops          []workload.Op
	srv          *admitd.Server
	c            *wireClient
	rec          *record
	setup, synth time.Duration
}

func (b *bench) daemonSetup(tr *tracer, seed int64) (*daemonSetup, error) {
	collect()
	t0 := time.Now()
	h, ops, err := b.w.synthesize(seed)
	synth := time.Since(t0)
	if err != nil {
		return nil, err
	}
	topo, _, err := h.Topo.Build()
	if err != nil {
		return nil, err
	}
	srv, err := admitd.New(admitd.Config{Topo: h.Topo, Core: core.Config{Workers: b.workers}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	srv.Serve(ln)
	rec := &record{topo: topo, ops: ops, verdict: make([]int8, len(ops)), lastEvent: make(map[string]int)}
	d := &daemonSetup{topo: topo, ops: ops, srv: srv, rec: rec, synth: synth}
	if d.c, err = dial(ln.Addr().String(), h.Topo, rec, daemonWindow, tr); err != nil {
		srv.Drain()
		return nil, err
	}
	rec.subscribed = subscribedNames(ops, daemonSubs, seed)
	for _, name := range rec.subscribed {
		if err = d.c.send(workload.Op{Op: "sub", Name: name}, -1, false); err != nil {
			break
		}
	}
	if err == nil {
		err = d.c.sync()
	}
	if err != nil {
		d.close()
		return nil, err
	}
	collect()
	d.setup = time.Since(t0)
	return d, nil
}

// close drains the server and closes the connection.
func (d *daemonSetup) close() {
	d.srv.Drain()
	d.c.conn.Close()
	<-d.c.done
}

// daemonReplay replays the trace of the given seed once through a fresh
// admitd.Server over loopback TCP: set-up (trace, server, connection,
// subscriptions), untimed warm-up, timed remainder, then the daemon's
// own counters.
func (b *bench) daemonReplay(tr *tracer, seed int64) (*replay, error) {
	w := b.w
	d, err := b.daemonSetup(tr, seed)
	if err != nil {
		return nil, err
	}
	defer d.close()
	ops, srv, c, rec := d.ops, d.srv, d.c, d.rec
	r := &replay{setup: d.setup, synth: d.synth, rec: rec}

	split := w.splitAt(ops)
	for i := 0; i < split; i++ {
		if err := c.send(ops[i], i, false); err != nil {
			return nil, err
		}
	}
	if err := c.sync(); err != nil {
		return nil, err
	}

	collect()
	rtm := readRuntime()
	bytes0 := c.conn.n.Load()
	cpu0 := cpuTime()
	start := time.Now()
	for i := split; i < len(ops); i++ {
		if err := c.send(ops[i], i, true); err != nil {
			return nil, err
		}
		if ops[i].Op == "add" {
			r.requests++
		}
	}
	err = c.sync()
	r.elapsed = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.rtm = readRuntime().sub(rtm)
	r.bytes = c.conn.n.Load() - bytes0
	if err != nil {
		return nil, err
	}

	if err := c.send(workload.Op{Op: "stats"}, -1, false); err != nil {
		return nil, err
	}
	if err := c.sync(); err != nil {
		return nil, err
	}
	if err := srv.Drain(); err != nil {
		return nil, fmt.Errorf("daemon drain: %w", err)
	}
	<-c.done
	if c.errMsg != "" {
		return nil, fmt.Errorf("daemon wire: %s", c.errMsg)
	}
	if c.stats == nil {
		return nil, fmt.Errorf("daemon sent no stats")
	}
	rec.admitted, rec.rejected = c.stats.Admitted, c.stats.Rejected
	rec.released, rec.resident = c.stats.Released, c.stats.Resident
	r.lat = c.lat
	r.failed = c.failed
	for _, v := range rec.verdict {
		if v != vNone {
			r.ops++
		}
	}
	return r, nil
}
