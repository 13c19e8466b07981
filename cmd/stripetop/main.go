// stripetop is a live terminal dashboard for striped sessions: it
// polls a stripe.Serve endpoint's /debug/stripe/health and renders
// per-channel windowed rates, health scores with reason codes, the
// fairness band, peer-reported loss and relative one-way delay (the
// P-LOSS / P-DELAY columns, from the telemetry plane), and recent
// protocol events — top(1) for a bundle.
//
//	stripetop -addr localhost:9090           # watch a running endpoint
//	stripetop -demo                          # self-contained demo session
//	stripetop -demo -plain -d 3s -i 500ms    # CI-friendly: no ANSI clears
//	stripetop -addr localhost:9090 -once     # one frame, no ANSI, exit 0
//
// The demo starts an in-process duplex session over lossy local
// channels (one channel degraded hard), serves it on a loopback port,
// and polls itself over HTTP — the same path an external stripetop
// takes against a production endpoint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"stripe"
)

func main() {
	var (
		addr     = flag.String("addr", "", "stripe.Serve endpoint to poll (host:port)")
		demo     = flag.Bool("demo", false, "run a self-contained demo session and watch it")
		interval = flag.Duration("i", time.Second, "poll/refresh interval")
		dur      = flag.Duration("d", 0, "exit after this long (0 = run until the endpoint goes away; demo default 10s)")
		once     = flag.Bool("once", false, "render a single frame and exit")
		plain    = flag.Bool("plain", false, "append frames instead of ANSI-clearing the screen (for logs/CI)")
	)
	flag.Parse()

	// A single-frame snapshot is for scripts and CI logs: never clear
	// the screen, just print the frame and exit 0.
	if *once {
		*plain = true
	}

	target := *addr
	deadline := *dur
	if *demo {
		stopDemo, demoAddr := startDemo()
		defer stopDemo()
		target = demoAddr
		if deadline == 0 {
			deadline = 10 * time.Second
		}
	}
	if target == "" {
		fmt.Fprintln(os.Stderr, "stripetop: need -addr host:port or -demo")
		os.Exit(2)
	}

	var (
		end        time.Time
		prevEvents = map[string]map[string]int64{} // session -> kind -> count
		frames     int
	)
	if deadline > 0 {
		end = time.Now().Add(deadline)
	}
	for {
		reports, err := fetch(target)
		if err != nil {
			if frames == 0 {
				log.Fatalf("stripetop: %v", err)
			}
			fmt.Printf("stripetop: endpoint gone: %v\n", err)
			return
		}
		frame := render(target, reports, prevEvents, *interval)
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Print(frame)
		frames++
		if *once || (!end.IsZero() && !time.Now().Add(*interval).Before(end)) {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch pulls one health report set from the endpoint.
func fetch(addr string) ([]stripe.HealthReport, error) {
	resp, err := http.Get("http://" + addr + "/debug/stripe/health")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var payload struct{ Sessions []stripe.HealthReport }
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, err
	}
	return payload.Sessions, nil
}

// render formats one frame from the polled reports. prevEvents carries
// the prior poll's event counts so protocol activity shows as deltas.
func render(addr string, reports []stripe.HealthReport, prevEvents map[string]map[string]int64, interval time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "stripetop — %s — %s — refresh %v\n",
		addr, time.Now().Format("15:04:05"), interval)
	for i := range reports {
		r := &reports[i]
		name := r.Session
		if name == "" {
			name = fmt.Sprintf("session#%d", i)
		}
		fmt.Fprintf(&b, "\n%s  round %d  fairness %d/%d B  buffered %d  active %d/%d",
			name, r.Round, r.FairnessDiscrepancy, r.FairnessBound, r.Buffered,
			r.ActiveChannels, r.Channels)
		sp := r.Windows.ScoreWindow()
		if sp == nil {
			b.WriteString("\n  (no windowed telemetry: attach a stripe.Windows rollup)\n")
			continue
		}
		fmt.Fprintf(&b, "  window %v (covered %v)  tx %s  rx %s  stall %.1f%%\n",
			sp.Span, sp.Covered.Round(time.Millisecond),
			rate(sp.Session.TxBytesPerSec), rate(sp.Session.RxBytesPerSec),
			100*sp.Session.CreditStallFrac)
		b.WriteString("  CH  HEALTH            TX/s      RX/s      LOSS  RSYNC/s  MARK/s  LATENCY  SKEW    P-LOSS  P-DELAY  REASONS\n")
		for _, c := range sp.Channels {
			h := r.Windows.Score(c.Channel)
			reasons := "-"
			if len(h.Reasons) > 0 {
				reasons = strings.Join(h.Reasons, ",")
			}
			pLoss, pDelay := "-", "-"
			if pc := peerChannel(r.Peer, c.Channel); pc != nil {
				pLoss = fmt.Sprintf("%.1f%%", 100*pc.LossFrac)
				if pc.OneWayDelayNs != 0 {
					pDelay = "+" + latency(pc.RelativeDelayNs)
					if pc.RelativeDelayNs == 0 {
						pDelay = "+0s" // the bundle's fastest channel
					}
				}
			}
			fmt.Fprintf(&b, "  %2d  %3d %s  %-8s  %-8s  %4.1f%%  %7.1f  %6.1f  %-7s  %-6s  %-6s  %-7s  %s\n",
				c.Channel, h.Score, bar(h.Score),
				rate(c.TxBytesPerSec), rate(c.RxBytesPerSec),
				100*c.LossFrac, c.ResyncsPerSec, c.MarkersPerSec,
				latency(c.LatencyEWMA), latency(c.DelaySkew), pLoss, pDelay, reasons)
		}
		if p := r.Peer; p != nil {
			occ := ""
			if p.MaxBuffered > 0 {
				occ = fmt.Sprintf("  reseq %d/%d (%.0f%%)", p.Buffered, p.MaxBuffered, 100*p.OccupancyFrac)
			}
			fmt.Fprintf(&b, "  peer: report #%d%s  bundle skew %s\n",
				p.Seq, occ, latency(p.SkewNs))
		}
		if line := eventDelta(name, r.Events, prevEvents); line != "" {
			fmt.Fprintf(&b, "  events: %s\n", line)
		}
	}
	return b.String()
}

// eventDelta renders per-kind protocol event counts since the last
// poll (cumulative on the first).
func eventDelta(session string, now map[string]int64, prev map[string]map[string]int64) string {
	if len(now) == 0 {
		return ""
	}
	last := prev[session]
	kinds := make([]string, 0, len(now))
	for k := range now {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		d := now[k] - last[k]
		if d > 0 {
			parts = append(parts, fmt.Sprintf("%s +%d", k, d))
		}
	}
	cp := make(map[string]int64, len(now))
	for k, v := range now {
		cp[k] = v
	}
	prev[session] = cp
	return strings.Join(parts, "  ")
}

// peerChannel finds channel c in the peer section, nil when the peer
// has not reported (or not for this channel).
func peerChannel(p *stripe.PeerSnapshot, c int) *stripe.PeerChannel {
	if p == nil {
		return nil
	}
	for i := range p.Channels {
		if p.Channels[i].Channel == c {
			return &p.Channels[i]
		}
	}
	return nil
}

// bar renders a ten-cell health meter.
func bar(score int) string {
	full := score / 10
	if full < 0 {
		full = 0
	}
	if full > 10 {
		full = 10
	}
	return "[" + strings.Repeat("#", full) + strings.Repeat(".", 10-full) + "]"
}

// rate humanizes a bytes/s figure.
func rate(bps float64) string {
	switch {
	case bps >= 1e9:
		return fmt.Sprintf("%.1fGB/s", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.1fMB/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1fkB/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0fB/s", bps)
	}
}

// latency humanizes a nanosecond figure.
func latency(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// startDemo builds a duplex striped session over lossy in-process
// channels — channel 2 degraded hard so the health score has something
// to say — attaches windowed telemetry to both ends, and serves it on
// a loopback port for the dashboard to poll over HTTP.
func startDemo() (stop func(), addr string) {
	const nch = 3
	colA := stripe.NewNamedCollector("alice", nch)
	colB := stripe.NewNamedCollector("bob", nch)
	tracer := stripe.NewTracer(stripe.TracerConfig{Sample: 4})
	colA.SetTracer(tracer)
	colB.SetTracer(tracer)
	wcfg := stripe.WindowConfig{
		Tick:  250 * time.Millisecond,
		Spans: []time.Duration{time.Second, 5 * time.Second},
	}
	stripe.NewWindows(colA, wcfg)
	stripe.NewWindows(colB, wcfg)

	cfg := stripe.SessionConfig{
		Config: stripe.Config{
			Quanta:    stripe.UniformQuanta(nch, 1500),
			Markers:   stripe.MarkerPolicy{Every: 2, Position: 0},
			Collector: colA,
		},
		CreditWindow:   64 * 1024,
		MarkerInterval: 5 * time.Millisecond,
	}
	backCfg := cfg
	backCfg.Collector = colB

	mk := func(c *stripe.Collector, lossOn2 float64) ([]stripe.ChannelSender, []*stripe.LocalChannel) {
		send := make([]stripe.ChannelSender, nch)
		recv := make([]*stripe.LocalChannel, nch)
		for i := 0; i < nch; i++ {
			loss := 0.01
			if i == 2 {
				loss = lossOn2
			}
			ch := stripe.NewLocalChannel(stripe.LocalChannelConfig{
				Loss:      loss,
				Seed:      int64(i + 1),
				Collector: c,
				Index:     i,
			})
			send[i], recv[i] = ch, ch
		}
		return send, recv
	}
	abSend, abRecv := mk(colA, 0.35)
	baSend, baRecv := mk(nil, 0)

	alice, err := stripe.NewSession(abSend, cfg)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := stripe.NewSession(baSend, backCfg)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := stripe.Serve("127.0.0.1:0", colA, colB)
	if err != nil {
		log.Fatal(err)
	}

	done := make(chan struct{})
	for i := 0; i < nch; i++ {
		bob.Attach(i, abRecv[i])
		alice.Attach(i, baRecv[i])
	}

	rng := rand.New(rand.NewSource(1))
	go func() { // Figure 15 bimodal workload, alice -> bob
		for {
			select {
			case <-done:
				return
			default:
			}
			size := 200
			if rng.Intn(2) == 1 {
				size = 1000
			}
			if alice.SendBytes(make([]byte, size)) != nil {
				return
			}
		}
	}()
	go func() {
		for bob.Recv() != nil {
		}
	}()
	go func() {
		for alice.Recv() != nil {
		}
	}()

	return func() {
		close(done)
		alice.Close()
		bob.Close()
		srv.Close()
	}, srv.Addr()
}
