// Package stripe implements the reliable, scalable channel striping
// protocol of Adiseshu, Parulkar and Varghese (SIGCOMM 1996): fair load
// sharing of variable-length packets across multiple FIFO channels via
// Surplus Round Robin (a causal fair-queuing algorithm run "in
// reverse"), FIFO delivery at the receiver via logical reception (the
// receiver simulates the sender's automaton), and fast restoration of
// synchronization after loss via periodic marker packets — all without
// modifying a single data packet.
//
// # Quick start
//
// Implement ChannelSender/ChannelReceiver for your transport (or use
// the built-in local, UDP, or TCP channels), then:
//
//	cfg := stripe.Config{Quanta: stripe.UniformQuanta(4, 1500)}
//	tx, _ := stripe.NewSender(senders, cfg)
//	rx, _ := stripe.NewReceiver(4, cfg)
//
//	for i, ch := range receiveEnds { // anything with ReadPacket
//	    rx.Attach(i, ch) // one read pump per channel, stopped by Close
//	}
//	tx.Send(stripe.Data(payload)) // stripes across the channels
//	pkt := rx.Recv()              // delivered in FIFO order
//	rx.Close()                    // stops and joins the pumps
//
// The sender and receiver must be configured with identical Quanta (and
// marker policy); the receiver's FIFO guarantee is exactly the paper's:
// perfect FIFO without loss, quasi-FIFO under loss, resynchronizing
// within roughly one marker period after losses stop.
//
// # Batching and the packet pool
//
// SendBatch/RecvBatch move packets in bulk: the transmit (or receive)
// lock is taken once per batch, the scheduler is consulted once per
// service run, and TCP channels flush once per batch. The single-packet Send and Recv
// are batches of one, so the two styles mix freely. The pool makes the
// steady state allocation-free, control packets included, in process
// and over sockets; its lifetime rules:
//
//   - GetPacket/GetPacketSized hand you exclusive ownership of a pooled
//     packet and its payload backing array. A pooled packet carries
//     2 KiB of payload capacity (one MTU class) allocated with the
//     packet itself, so a pool miss costs one allocation.
//   - Fill it, send it. Who owns it after a successful SendBatch
//     depends on the channel: UDP and TCP channels serialize every
//     packet before Send returns, so it is yours again and you may
//     Release it at once; over in-process channels (LocalChannel) it
//     travels as is, and the receiving side owns it.
//   - Control packets (markers, credits, membership, telemetry, resets)
//     have one rule per direction: Send borrows, Arrive owns. The
//     sender draws each from the pool and releases it as soon as the
//     channel's Send returns, so a ChannelSender that holds packets
//     past Send (a queue, a delay line, a test fake that records what
//     it saw) must keep p.Keep() — a pooled copy of a control packet —
//     never p itself. Arrive takes ownership of every control packet it
//     is handed, unknown kinds included, and releases it to the pool
//     once consumed or dropped. Read whatever you need from a packet
//     before passing it to Arrive. Data packets follow the rules above.
//   - Packets returned by Recv/RecvBatch are yours. Once the payload is
//     consumed, hand each back with Packet.Release — after Release,
//     neither the packet nor any slice of its payload may be touched,
//     because the next Get anywhere in the process may reuse both.
//   - Release is always optional: an unreleased packet is ordinary
//     garbage, and correctness never depends on the pool.
//   - Never Release a packet whose payload aliases memory you keep
//     (e.g. one built with Data around an application buffer): Release
//     donates the backing array to the pool.
//
// # Flow control and memory bounds
//
// Duplex Sessions piggyback credit-based flow control on markers. Each
// marker carries the sender's cumulative byte position on its channel;
// because channels are FIFO, the receiver computes the exact loss at
// every marker arrival and re-grants consumed+lost+window, so credits
// lost with dropped packets are reclaimed within a marker period and
// the sender never wedges permanently (grants are folded monotonically,
// making lost or reordered markers harmless). Config.MaxBuffered caps
// resequencer memory: markers that no data precedes are drained eagerly
// (an idle-but-markered direction stays at O(channels) occupancy), a
// full buffer escalates to forced delivery past gaps, and at twice the
// cap arrivals are dropped — no worse than channel loss, which the
// protocol already survives.
//
// A Session is a Sender and a Receiver joined by a small coupler. The
// two directions lock independently and the receive path never waits
// on the transmit lock, so a sender blocked on a full transport or on
// credit never stops its own end from receiving; Session.Attach gives
// the read pumps to the Session, and Close stops and joins them.
//
// # Counters
//
// Sender.Stats and Session.SendStats return SenderStats, the
// transmit-side counters: DataPackets and DataBytes (data striped so
// far), Markers (marker packets cut), Round and Epoch (the SRR
// automaton position), and PerChannel ([]ChannelLoad with Packets and
// Bytes per channel — the raw material of the fairness claim).
// Receiver.Stats and Session.Stats return ReceiverStats, the
// receive-side mirror: Delivered and DeliveredBytes (in-order data
// handed to the application), Markers and BadMarkers (consumed vs
// dropped-as-corrupt), Resyncs (markers that actually changed receiver
// state), Skips (channel visits skipped under the r_c > G rule),
// Resets and OldEpochDrops (epoch resets and packets discarded while
// waiting one out), SelfHeals (state adopted wholesale from uniformly
// newer markers), FastForwards (rounds advanced while every
// channel was skip-listed), and BadFrames (frames an Attach pump
// dropped because the transport could not decode them; the pump reads
// on, and only a transport error ends it).
//
// # Observability
//
// For continuous monitoring, attach a Collector:
//
//	col := stripe.NewCollector(4) // or NewNamedCollector("tx", 4)
//	cfg := stripe.Config{Quanta: stripe.UniformQuanta(4, 1500), Collector: col}
//	srv, _ := stripe.Serve("127.0.0.1:9090", col)
//	defer srv.Close()
//	// curl http://127.0.0.1:9090/metrics
//
// The collector keeps per-channel packet/byte/marker/recovery counters,
// a packet-displacement histogram, and a live fairness gauge — the
// observed max_i |K·Quantum_i − bytes_i| next to the Theorem 3.2 bound
// Max + 2·Quantum. Serve exposes everything as Prometheus text on
// /metrics, expvar JSON on /debug/vars, and the standard pprof
// profiles on /debug/pprof/. Read it in-process with Snapshot (on the
// Collector or on the Sender/Receiver/Session it is attached to), or
// subscribe to discrete protocol transitions (resync, skip, reset,
// self-heal, fast-forward, credit exhaustion, credit reconciliation,
// resequencer overflow) with Collector.AddSink —
// NewRingSink keeps the last n events, NewWriterSink logs one line
// each. All of it is nil-safe: with no Collector configured the hot
// path pays a single pointer test.
//
// For rates and per-channel health rather than cumulative totals,
// attach a windowed rollup:
//
//	stripe.NewWindows(col, stripe.WindowConfig{}) // 1s tick, 1s/10s/60s spans
//
// Counter deltas fold into ring-buffered windows on the engine's flush
// tick (no per-packet cost) and publish per-channel goodput, loss and
// resync fractions, send-latency EWMAs, marker-spread delay skew, and
// a composable 0-100 HealthScore with reason codes. Serve adds the
// rolled-up view at /debug/stripe/health and windowed stripe_*_rate /
// stripe_channel_health gauges to /metrics; cmd/stripetop renders it
// live in a terminal. Sessions can consume the score as evidence-based
// eviction (HealthConfig.ScoreEvictBelow) — it catches silently lossy
// channels whose Send never errors and so never build an error streak.
//
// Sessions also feed each other: on every marker-timer tick the
// receiver's per-channel view (delivered/lost bytes, resyncs,
// resequencer occupancy, recent marker timestamps) rides back as a
// Telemetry control packet — a forward-compatible codepoint that
// plain receivers ignore — and folds into the sender-side PeerView
// (Session.PeerView, re-exported from internal/obs). An NTP-style
// min-filter over marker tx/rx timestamp pairs recovers per-channel
// relative one-way delay and bundle skew; peer-reported loss powers
// HealthConfig.PeerScoreEvictBelow, eviction on the receiver's
// evidence when the sender's own accounting shows nothing wrong. The
// peer section appears in /debug/stripe/health, the stripe_peer_*
// and stripe_channel_oneway_delay_nanoseconds gauges, and
// stripetop's P-LOSS / P-DELAY columns.
//
// The internal packages implement every substrate of the paper's
// evaluation (schedulers, impaired channels, the strIPe IP framework, a
// discrete-event simulator with a Reno-style TCP, baselines, and the
// experiment harness); see DESIGN.md for the map and EXPERIMENTS.md for
// the regenerated tables and figures.
package stripe
