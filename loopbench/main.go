// Command loopbench is the repository's end-to-end benchmark: a pair of
// stripe.Sessions in one process, talking over real loopback sockets
// (the host's loopback interface, not a real link), driven by a seeded
// workload whose every delivery is checked for order, duplication and
// integrity.
//
//	bash loopbench/run.sh --workload bulk_tcp --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// makes the same untraced pass and then a traced one, which times the
// calls into each layer's public functions from this package's own
// wrappers and reports the per-layer breakdown, the transmit
// decomposition and the tracing overhead. --workload all runs every
// workload. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"stripe"
)

// quantum is every channel's SRR quantum: at least the largest packet
// (1400 B payload plus framing).
const quantum = 1500

// setupRuns is how many times each run builds the stack; setup_s is the
// median, and the last stack built carries the load.
const setupRuns = 31

// warmup runs the load before the window opens, so pools, socket
// buffers and resequencer buffers reach steady state first.
const warmup = time.Second

// workload is one traffic mix. The reasons each exists are in
// README.md and BENCHMARK.json.
type workload struct {
	name      string
	udp       bool
	rpc       bool
	loss      bool  // 1% seeded loss of every packet kind, both directions
	window    int64 // per-channel credit window; 0 disables flow control
	collector bool  // attach a Collector with Tracer, Windows and Checker
}

var workloads = []workload{
	{name: "bulk_tcp"},
	{name: "rpc_tcp", rpc: true},
	{name: "lossy_udp", udp: true, loss: true, window: 64 << 10, collector: true},
}

// sessions returns the two ends' configurations. With a collector,
// each end gets its own, but both share one default (1-in-16) packet
// tracer: both ends live in this process, so the tracer sees a packet
// striped on one end and delivered on the other and can time the whole
// path.
func (w workload) sessions() (a, b stripe.SessionConfig) {
	a = stripe.SessionConfig{
		Config:       stripe.Config{Quanta: stripe.UniformQuanta(nch, quantum)},
		CreditWindow: w.window,
	}
	b = a
	if w.collector {
		tr := stripe.NewTracer(stripe.TracerConfig{})
		for _, cfg := range []*stripe.SessionConfig{&a, &b} {
			col := stripe.NewCollector(nch)
			col.SetTracer(tr)
			stripe.NewWindows(col, stripe.WindowConfig{})
			col.SetChecker(stripe.NewChecker())
			cfg.Collector = col
		}
	}
	return a, b
}

// sizeAt is the payload size of the i-th data packet the workload sends.
func (w workload) sizeAt(seed, i uint64) int {
	if w.rpc {
		if i%2 == 0 {
			return rpcReqSize
		}
		return rpcRespSize
	}
	return bulkSize(seed, i)
}

// state is what the measuring goroutine reads at each edge of the window.
type state struct {
	at         time.Time
	ops, bytes int64
	attempted  int64
	misorders  int64
	cpu        time.Duration
	mallocs    uint64
	gcs        uint32
	layers     [numLayers]aggSnap
	timeouts   int64
	markers    int64
	resyncs    int64
	skips      int64
	stall      time.Duration
	events     int64
}

func readState(st *stack, d driver) state {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l := d.counters()
	s := state{
		at:        time.Now(),
		ops:       l.ops.Load(),
		bytes:     l.bytes.Load(),
		attempted: l.attempted.Load(),
		misorders: l.misorders.Load(),
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:   ms.Mallocs,
		gcs:       ms.NumGC,
		layers:    st.a.tr.snapshot(), // one tracer serves both ends
		timeouts:  st.timeouts.Load(),
	}
	for _, e := range []*end{st.a, st.b} {
		s.markers += e.s.SendStats().Markers
		rs := e.s.Stats()
		s.resyncs += rs.Resyncs
		s.skips += rs.Skips
		snap := e.s.Snapshot()
		s.stall += snap.CreditStall
		for _, n := range snap.Events {
			s.events += n
		}
	}
	return s
}

// result is one measured pass of one workload. The window is split
// into one-second slots; end-to-end figures are medians over the slots,
// so a disturbance confined to one slot (a neighbour on the host, a GC
// cycle) does not move them. Per-layer figures are window totals.
type result struct {
	w          workload
	setup      []float64 // seconds, one per stack built
	secs       float64   // measured window
	slots      []slot
	ops        int64
	attempted  int64
	misorders  int64
	failed     int64
	violations int64
	cpu        time.Duration
	gcs        uint32
	layers     [numLayers]aggSnap
	timeouts   int64
	markers    int64
	resyncs    int64
	skips      int64
	stall      time.Duration
	events     int64
	e2eP50     int64 // the shared packet tracer's stripe-to-delivery median, ns
	drops      int64 // packets the loss wrapper dropped, whole run
	s          samples
}

// slot is one second of the window.
type slot struct {
	secs       float64
	ops, bytes int64
	cpu        time.Duration
	mallocs    uint64
}

// slotLen is the length of one slot of the measured window.
const slotLen = time.Second

// measure builds the stack setupRuns times, runs the load on the last
// one through the warm-up and the window, drains it and tears it down.
func measure(w workload, seed uint64, nslots int, tr *tracer, inject string) (*result, error) {
	r := &result{w: w}
	opts := stackOpts{udp: w.udp, session: w.sessions, loss: w.loss, seed: seed, tr: tr, inject: inject}
	var st *stack
	for k := 0; k < setupRuns; k++ {
		// Start each build from a collected heap, so a GC cycle the
		// previous build triggered does not land in this one's time.
		runtime.GC()
		t0 := time.Now()
		s, err := newStack(opts)
		if err == nil {
			err = s.probe()
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
		if err != nil {
			if s != nil {
				s.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if k < setupRuns-1 {
			s.close()
		} else {
			st = s
		}
	}

	clk := clock{base: time.Now()}
	var d driver
	if w.rpc {
		d = newRPC(st, clk, seed, slotLen, nslots)
	} else {
		d = newStream(st, clk, seed, !w.loss, slotLen, nslots)
	}
	st.armed.Store(true)
	d.start()
	time.Sleep(warmup)

	l := d.counters()
	start := clk.now()
	l.lo.Store(start)
	d.mark(true)
	if tr != nil {
		tr.from.Store(tr.now())
	}
	states := []state{readState(st, d)}
	for i := 1; i <= nslots; i++ {
		time.Sleep(time.Duration(start + int64(i)*int64(slotLen) - clk.now()))
		if i == nslots {
			d.mark(false)
		}
		states = append(states, readState(st, d))
	}

	lost := d.stop()
	for _, e := range []*end{st.a, st.b} {
		r.violations += e.s.Snapshot().InvariantViolations
	}
	if col := st.b.col; col != nil {
		r.e2eP50 = col.Tracer().Snapshot().EndToEnd.Quantile(0.5)
	}
	st.close()
	r.s = d.finish()
	for _, l := range st.losses {
		r.drops += l.dropped.Load()
	}

	for i := 1; i <= nslots; i++ {
		a, b := states[i-1], states[i]
		r.slots = append(r.slots, slot{
			secs:    b.at.Sub(a.at).Seconds(),
			ops:     b.ops - a.ops,
			bytes:   b.bytes - a.bytes,
			cpu:     b.cpu - a.cpu,
			mallocs: b.mallocs - a.mallocs,
		})
	}
	s0, s1 := states[0], states[nslots]
	r.secs = s1.at.Sub(s0.at).Seconds()
	r.ops = s1.ops - s0.ops
	r.attempted = s1.attempted - s0.attempted
	r.misorders = s1.misorders - s0.misorders
	r.cpu = s1.cpu - s0.cpu
	r.gcs = s1.gcs - s0.gcs
	for i := range r.layers {
		r.layers[i] = s1.layers[i].sub(s0.layers[i])
	}
	r.timeouts = s1.timeouts - s0.timeouts
	r.markers = s1.markers - s0.markers
	r.resyncs = s1.resyncs - s0.resyncs
	r.skips = s1.skips - s0.skips
	r.stall = s1.stall - s0.stall
	r.events = s1.events - s0.events
	r.failed = l.failures.Load() + lost + st.readErrs.Load() + r.violations
	for _, b := range [][][]int64{r.s.lat, r.s.rtt} {
		for _, v := range b {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
	}
	return r, nil
}

// isolatedSendNs is the Session's own transmit cost per data packet:
// the same configuration over channels that discard everything, so no
// socket, peer or contending goroutine is involved. The decomposition
// check compares it with what the loopback run leaves to core.
func isolatedSendNs(w workload, seed uint64, batch int) (float64, error) {
	cfg, _ := w.sessions()
	cfg.CreditWindow = 0 // no peer to grant credit
	s, err := stripe.NewSession([]stripe.ChannelSender{discard{}, discard{}}, cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if batch < 1 {
		batch = 1
	}
	pkts := make([]*stripe.Packet, batch)
	const total = 1 << 17
	var busy time.Duration
	var seq uint64
	for seq < total {
		for i := range pkts {
			p := stripe.GetPacketSized(w.sizeAt(seed, seq))
			fill(p.Payload, seq, 0, 0, seed)
			pkts[i] = p
			seq++
		}
		t0 := time.Now()
		_, err := s.SendBatch(pkts)
		busy += time.Since(t0)
		for _, p := range pkts {
			p.Release()
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(busy.Nanoseconds()) / float64(seq), nil
}

// metric is one named figure in the output.
type metric struct {
	name  string
	value float64
	unit  string
}

// quantileUs is the q-quantile of sorted nanosecond samples, in µs.
func quantileUs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e3
}

// slotQuantileUs is the median over the window's slots of each slot's
// q-quantile.
func slotQuantileUs(b buckets, q float64) float64 {
	var v []float64
	for _, s := range b {
		if len(s) > 0 {
			v = append(v, quantileUs(s, q))
		}
	}
	return median(v)
}

func count(b buckets) int {
	n := 0
	for _, s := range b {
		n += len(s)
	}
	return n
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slotMedian is the median over the window's slots of f.
func (r *result) slotMedian(f func(slot) float64) float64 {
	v := make([]float64, len(r.slots))
	for i, s := range r.slots {
		v[i] = f(s)
	}
	return median(v)
}

// endToEnd are the bounded metrics of the untraced pass: every one is
// defined, nonzero and steady from run to run on every workload.
func endToEnd(r *result) []metric {
	frac := ratio(float64(r.s.delivered), float64(r.s.seqHi-r.s.seqLo))
	return []metric{
		{"allocs_per_op", r.slotMedian(func(s slot) float64 { return ratio(float64(s.mallocs), float64(s.ops)) }), "count"},
		{"delivered_frac", frac, "ratio"},
		{"setup_s", median(r.setup), "s"},
	}
}

// workloadExtras are the end-to-end figures that exist on only some
// workloads, read 0 on others, or are too noisy to bound, so they ride
// unbounded with the per-layer metrics in the JSON line. Throughput and
// CPU per op move with what the host's other tenants take from this
// VM, and bulk_tcp switches between a back-pressured and a drained
// state; latency on bulk_tcp tracks TCP buffer depth.
func workloadExtras(r *result) []metric {
	return []metric{
		{"goodput_MBps", r.slotMedian(func(s slot) float64 { return float64(s.bytes) / s.secs / 1e6 }), "MB/s"},
		{"req_per_s", r.slotMedian(func(s slot) float64 { return float64(s.ops) / s.secs }), "1/s"},
		{"cpu_us_per_op", r.slotMedian(func(s slot) float64 { return ratio(float64(s.cpu.Nanoseconds())/1e3, float64(s.ops)) }), "us"},
		{"lat_p50_us", slotQuantileUs(r.s.lat, 0.50), "us"},
		{"lat_p99_us", slotQuantileUs(r.s.lat, 0.99), "us"},
		{"rtt_p50_us", slotQuantileUs(r.s.rtt, 0.50), "us"},
		{"rtt_p99_us", slotQuantileUs(r.s.rtt, 0.99), "us"},
		{"misorder_frac", ratio(float64(r.misorders), float64(r.ops)), "ratio"},
		{"failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio"},
	}
}

// decomposition is the transmit-path check: session.send should equal
// netchan.send + core self time + credit stall, with core self time
// close to what the same Session costs in isolation.
type decomposition struct {
	sessSend, netSend, stall, coreSelf, isolated, residual float64 // ns per op
}

// residualBound is the stated share of session.send the decomposition
// may leave unexplained before it is reported as a finding.
const residualBound = 0.20

func (d decomposition) ok() bool {
	return math.Abs(d.residual) <= residualBound*d.sessSend
}

func decompose(r *result, isoPerPkt float64) decomposition {
	ops := float64(r.ops)
	s := r.layers[lSessSend]
	d := decomposition{
		sessSend: ratio(float64(s.ns), ops),
		netSend:  ratio(float64(s.childNs), ops),
		stall:    ratio(float64(r.stall.Nanoseconds()), ops),
		isolated: isoPerPkt * ratio(float64(s.items), ops),
	}
	d.coreSelf = d.sessSend - d.netSend - d.stall
	d.residual = d.coreSelf - d.isolated
	return d
}

// perLayer are the metrics of the traced pass t; u is the untraced pass
// of the same run, for the tracing overhead and the workload extras.
func perLayer(u, t *result, d decomposition) []metric {
	ops := float64(t.ops)
	L := t.layers
	per := func(x int64) float64 { return ratio(float64(x), ops) }
	perK := func(x int64) float64 { return 1000 * per(x) }
	writes, writeBytes, writeNs := L[lNetWrite].calls, L[lNetWrite].bytes, L[lNetWrite].ns
	reads := L[lNetSysRead].calls
	if t.w.udp {
		// One write (or read) system call per datagram.
		writes, writeBytes, writeNs = L[lNetSend].items, L[lNetSend].bytes, L[lNetSend].ns
		reads = L[lNetRead].calls + t.timeouts
	}
	m := []metric{
		{"netchan.write_syscalls_per_op", per(writes), "count"},
		{"netchan.bytes_per_write", ratio(float64(writeBytes), float64(writes)), "B"},
		{"netchan.write_ns_per_op", per(writeNs), "ns"},
		{"netchan.send_ns_per_op", d.netSend, "ns"},
		{"netchan.pkts_per_send_call", ratio(float64(L[lNetSend].items), float64(L[lNetSend].calls)), "count"},
		{"netchan.read_syscalls_per_op", per(reads), "count"},
		{"netchan.read_ns_per_op", per(L[lNetRead].ns), "ns"},
		{"netchan.read_timeouts_per_s", float64(t.timeouts) / t.secs, "1/s"},
		{"session.send_ns_per_op", d.sessSend, "ns"},
		{"session.arrive_ns_per_op", per(L[lSessArrive].ns), "ns"},
		{"session.recv_ns_per_call", ratio(float64(L[lSessRecv].ns), float64(L[lSessRecv].calls)), "ns"},
		{"session.pkts_per_recv", ratio(float64(L[lSessRecv].items), float64(L[lSessRecv].calls)), "count"},
		{"core.tx_self_ns_per_op", d.coreSelf, "ns"},
		{"core.tx_isolated_ns_per_op", d.isolated, "ns"},
		{"core.tx_residual_ns_per_op", d.residual, "ns"},
		{"core.markers_per_op", per(t.markers), "count"},
		{"core.resyncs_per_kop", perK(t.resyncs), "count"},
		{"core.skips_per_kop", perK(t.skips), "count"},
		{"flowcontrol.stall_frac", t.stall.Seconds() / t.secs, "ratio"},
		{"packet.get_ns_per_op", per(L[lPktGet].ns), "ns"},
		{"packet.release_ns_per_op", per(L[lPktRelease].ns), "ns"},
		{"obs.violations", float64(t.violations), "count"},
		{"obs.trace_e2e_p50_us", float64(t.e2eP50) / 1e3, "us"},
		{"obs.events_per_kop", perK(t.events), "count"},
		{"runtime.gc_cycles_per_kop", perK(int64(t.gcs)), "count"},
		{"trace.overhead_frac", 1 - ratio(float64(t.ops)/t.secs, float64(u.ops)/u.secs), "ratio"},
	}
	return append(m, workloadExtras(u)...)
}

// facts are the host and run facts every record carries.
func facts(w string, seed uint64, secs int, trace bool) map[string]any {
	var u syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&u) == nil {
		var b strings.Builder
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b.WriteByte(byte(c))
		}
		kernel = b.String()
	}
	return map[string]any{
		"workload":   w,
		"seed":       seed,
		"seconds":    secs,
		"trace":      trace,
		"transport":  "loopback",
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"channels":   nch,
	}
}

// outDir is where traced runs write their span files: the build
// directory, inside the checkout.
func outDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return filepath.Join(d, "loopbench")
	}
	return filepath.Join(".bench_build", "loopbench")
}

// final is the last line of standard output.
type final struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func printMetrics(out io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(out, "  %-30s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// printSlots shows each slot's figures, the spread the medians hide.
func printSlots(out io.Writer, r *result) {
	fmt.Fprint(out, "  per-slot req_per_s / cpu_us_per_op / lat_p99_us:")
	for i, s := range r.slots {
		var p99 float64
		if i < len(r.s.lat) {
			p99 = quantileUs(r.s.lat[i], 0.99)
		}
		fmt.Fprintf(out, " %.0f/%.2f/%.0f", float64(s.ops)/s.secs, ratio(float64(s.cpu.Nanoseconds())/1e3, float64(s.ops)), p99)
	}
	fmt.Fprintln(out)
	fmt.Fprint(out, "  set-up runs (ms):")
	for _, v := range r.setup {
		fmt.Fprintf(out, " %.3f", v*1e3)
	}
	fmt.Fprintln(out)
}

// runOne measures workload w and prints its report; it returns the
// metrics for the JSON line and the run's attempted and failed counts.
func runOne(out io.Writer, w workload, seed uint64, secs int, trace bool, inject string) ([]metric, int64, int64, error) {
	u, err := measure(w, seed, secs, nil, inject)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := facts(w.name, seed, secs, trace)
	fmt.Fprintf(out, "# %s seed=%d window=%.3fs transport=loopback (host loopback interface, not a real link) num_cpu=%v gomaxprocs=%v go=%v kernel=%v\n",
		w.name, seed, u.secs, rec["num_cpu"], rec["gomaxprocs"], rec["go"], rec["kernel"])
	e2e := endToEnd(u)
	extras := workloadExtras(u)
	fmt.Fprintf(out, "end-to-end (untraced; ops=%d attempted=%d failed=%d lat_samples=%d rtt_samples=%d setups=%d injected_drops=%d):\n",
		u.ops, u.attempted, u.failed, count(u.s.lat), count(u.s.rtt), len(u.setup), u.drops)
	printMetrics(out, e2e)
	printMetrics(out, extras)
	printMetrics(out, []metric{{"obs.violations", float64(u.violations), "count"}})
	printSlots(out, u)
	samplesRec := map[string]int64{"ops": u.ops, "attempted": u.attempted, "failed": u.failed,
		"lat": int64(count(u.s.lat)), "rtt": int64(count(u.s.rtt)), "setups": int64(len(u.setup)),
		"slots": int64(len(u.slots)), "injected_drops": u.drops}
	all := append(append([]metric(nil), e2e...), extras...)
	report := e2e
	attempted, failed := u.attempted, u.failed
	if trace {
		tr := newTracer()
		t, err := measure(w, seed, secs, tr, inject)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s traced: %w", w.name, err)
		}
		batch := ratio(float64(t.layers[lSessSend].items), float64(t.layers[lSessSend].calls))
		iso, err := isolatedSendNs(w, seed, int(math.Round(batch)))
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s isolated send: %w", w.name, err)
		}
		d := decompose(t, iso)
		pl := perLayer(u, t, d)
		fmt.Fprintf(out, "per-layer (traced; ops=%d failed=%d):\n", t.ops, t.failed)
		printMetrics(out, pl[:len(pl)-len(extras)])
		fmt.Fprintf(out, "tracing overhead: traced %.1f ops/s vs untraced %.1f ops/s; cpu_us_per_op %.3f vs %.3f\n",
			float64(t.ops)/t.secs, float64(u.ops)/u.secs,
			ratio(float64(t.cpu.Microseconds()), float64(t.ops)), ratio(float64(u.cpu.Microseconds()), float64(u.ops)))
		fmt.Fprintf(out, "tx decomposition (ns/op): session.send %.1f = netchan.send %.1f + core.tx_self %.1f + credit stall %.1f; core in isolation %.1f, residual %.1f (%.1f%% of session.send, stated bound %.0f%%)\n",
			d.sessSend, d.netSend, d.coreSelf, d.stall, d.isolated, d.residual,
			100*ratio(d.residual, d.sessSend), 100*residualBound)
		if d.coreSelf < 0 {
			fmt.Fprintf(out, "FINDING: %s netchan.send plus credit stall exceed session.send by %.1f ns/op: the Collector's credit-stall clock overlaps the channel sends it should exclude\n",
				w.name, -d.coreSelf)
		}
		if !d.ok() {
			fmt.Fprintf(out, "FINDING: %s tx decomposition leaves %.1f ns/op (%.1f%% of session.send) unexplained by netchan.send, credit stall and the Session's isolated cost\n",
				w.name, d.residual, 100*ratio(d.residual, d.sessSend))
		}
		path := filepath.Join(outDir(), "spans-"+w.name+".csv")
		if err := tr.write(path); err != nil {
			return nil, 0, 0, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(out, "spans: %s (%d recorded in the window, first %d kept)\n", path, tr.stored.Load(), maxSpans)
		all = append(all, pl[:len(pl)-len(extras)]...)
		report = pl
		attempted += t.attempted
		failed += t.failed
		samplesRec["traced_ops"] = t.ops
		samplesRec["traced_failed"] = t.failed
	}
	vals := map[string]float64{}
	for _, m := range all {
		vals[m.name] = m.value
	}
	rec["metrics"] = vals
	rec["samples"] = samplesRec
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, 0, 0, err
	}
	fmt.Fprintf(out, "record %s\n", b)
	if failed > 0 {
		fmt.Fprintf(out, "FAILED: %s had %d failed ops out of %d attempted\n", w.name, failed, attempted)
	}
	return report, attempted, failed, nil
}

// run parses args, runs the benchmark and returns the exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("loopbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "", "bulk_tcp, rpc_tcp, lossy_udp or all")
	seed := fs.Uint64("seed", 1, "input seed: size mix, loss pattern, check patterns")
	secs := fs.Int("seconds", 10, "length of the measured window")
	trace := fs.Int("trace", 0, "1 adds a traced pass with the per-layer breakdown")
	inject := fs.String("inject", "", "self-test only: dup, corrupt or reorder one data packet")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, "usage: loopbench --workload bulk_tcp|rpc_tcp|lossy_udp|all --seed N --seconds S --trace 0|1")
		return 2
	}
	switch *inject {
	case "", "dup", "corrupt", "reorder":
	default:
		fmt.Fprintln(errOut, "loopbench: --inject must be dup, corrupt or reorder")
		return 2
	}
	res := final{Correct: true, Metrics: map[string]map[string]any{}}
	for _, w := range chosen {
		ms, attempted, failed, err := runOne(out, w, *seed, *secs, *trace == 1, *inject)
		if err != nil {
			fmt.Fprintln(errOut, "loopbench:", err)
			return 1
		}
		res.Attempted += attempted
		res.Failed += failed
		for _, m := range ms {
			key := m.name
			if len(chosen) > 1 {
				key = w.name + "." + m.name
			}
			res.Metrics[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		res.Correct = false
		res.Attempted = 1
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(errOut, "loopbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
