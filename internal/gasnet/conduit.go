// Package gasnet implements the communication conduit the OpenSHMEM and
// mini-MPI runtimes share, modeled on the GASNet mvapich2x conduit the paper
// modifies: an active-message core API, an extended one-sided RMA API, and —
// the paper's central subject — two connection-management strategies:
//
//   - Static: every PE establishes a reliable connection to every PE
//     (including itself) during attach, after a blocking PMI exchange of UD
//     endpoint addresses. This is the baseline ("Current Design").
//   - OnDemand: PEs create only a UD endpoint at attach; reliable
//     connections are established lazily by a two-phase UD handshake
//     (REQ/REP, plus the RTU ready-to-use leg) the first time a pair
//     communicates. Opaque upper-layer payloads (OpenSHMEM's segment
//     triplets) piggyback on REQ and REP, and UD endpoint info is exchanged
//     with a non-blocking PMIX_Iallgather whose completion is deferred to
//     first communication ("Proposed Design").
//
// The conduit also provides the intra-node barrier the paper substitutes for
// global barriers during initialization (section IV-E).
package gasnet

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"goshmem/internal/ib"
	"goshmem/internal/obs"
	"goshmem/internal/pmi"
	"goshmem/internal/vclock"
)

// Mode selects the connection-management strategy.
type Mode uint8

const (
	// Static is the fully connected baseline.
	Static Mode = iota
	// OnDemand establishes connections lazily.
	OnDemand
)

func (m Mode) String() string {
	if m == Static {
		return "static"
	}
	return "on-demand"
}

// ParseMode reads a -conn flag: String's inverse, "ondemand" accepted too.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "static":
		return Static, nil
	case "ondemand", "on-demand":
		return OnDemand, nil
	}
	return OnDemand, fmt.Errorf("unknown -conn %q", s)
}

// Handler is an active-message handler. It runs on the conduit's progress
// goroutine and must not block or invoke blocking conduit operations (Get,
// Quiet, barriers); it may send further AMRequests. at is the virtual time
// at which the message has been dispatched at the receiver.
type Handler func(src int, args [4]uint64, payload []byte, at int64)

// Config wires a conduit to its process, node and job.
type Config struct {
	Rank   int
	NProcs int
	Node   int // node index (informational; the HCA defines locality)
	PPN    int // processes per node

	HCA   *ib.HCA
	PMI   *pmi.Client
	Clock *vclock.Clock

	Mode Mode
	// BlockingPMI forces the Put-Fence-Get endpoint exchange even in
	// on-demand mode (the paper's section IV-D ablation). Static mode always
	// uses the blocking exchange.
	BlockingPMI bool

	// NodeBarrier synchronizes the PEs of one node (shared-memory barrier).
	NodeBarrier *vclock.VBarrier

	// Obs is this PE's observability recorder (nil/obs.Nop disables all
	// recording at near-zero cost). Connection-lifecycle events (initiate,
	// req-recv, req-held, ready-client, ready-server, collision, retransmit,
	// ...) land in its event ring stamped with the virtual time they occurred
	// at, and the conduit records connect-latency, first-op-penalty and
	// heartbeat-RTT histograms when metrics are on.
	Obs *obs.PE

	// ConnectPayload, if set, supplies the opaque payload appended to
	// connection REQ/REP messages (OpenSHMEM serializes its segment
	// <address,size,rkey> triplets here). OnConnectPayload consumes the
	// payload received from a peer; it is invoked exactly once per peer,
	// before any pending traffic to or from that peer is released.
	ConnectPayload   func() []byte
	OnConnectPayload func(peer int, payload []byte, at int64)

	// MaxLiveRC, when positive, caps the live RC queue pairs on this PE's
	// HCA (shared by the node's PEs, like the HCA endpoint cache it models).
	// When a new connection would exceed the cap, this PE evicts its own
	// least-recently-used idle connection; the evicted peer reconnects on
	// demand through the normal handshake. Zero means unbounded. On-demand
	// mode only: the static baseline is fully connected by definition and
	// has no reconnect path, so it ignores the cap.
	MaxLiveRC int

	// Heartbeat forces the UD-heartbeat failure detector (failure.go) on or
	// off. Left zero, the detector arms itself only when the fabric has PE or
	// network failures scheduled; fault-free runs never probe and record zero
	// detector activity.
	Heartbeat HeartbeatConfig
}

// Stats counts the per-PE resource usage and traffic that feed the paper's
// Table I and Figure 9. A tagged field is the one declaration of an exported
// counter (tags: obs.CounterDef): the job-wide sum, the registry mirror,
// oshrun's resilience table — whose row order is the declaration order here —
// and the TELEMETRY.md catalogue are all derived from it, so a new counter is
// one tagged field plus its increment. The int64 fields are the per-operation
// traffic counters, bumped atomically by begin; an int field changes only
// under connMu.
type Stats struct {
	QPsCreated       int   `ctr:"gasnet.qps_created" faultfree:"nonzero" help:"queue pairs this PE created (UD + RC, including discarded)"`
	RCQPsCreated     int   `ctr:"gasnet.rc_qps_created" faultfree:"nonzero" help:"reliable (RC) endpoints this PE created (the paper's Fig. 9 metric)"`
	ConnsEstablished int   `ctr:"gasnet.conns_established" faultfree:"nonzero" help:"connections that reached the ready state"`
	AMsSent          int64 `ctr:"gasnet.ams_sent" faultfree:"nonzero" help:"active messages sent"`
	PutsIssued       int64 `ctr:"gasnet.puts_issued" faultfree:"nonzero" help:"one-sided puts issued"`
	GetsIssued       int64 `ctr:"gasnet.gets_issued" faultfree:"nonzero" help:"one-sided gets issued"`
	AtomicsIssued    int64 `ctr:"gasnet.atomics_issued" faultfree:"nonzero" help:"one-sided atomics issued"`
	BytesPut         int64 `ctr:"gasnet.bytes_put" faultfree:"nonzero" help:"one-sided put payload bytes"`
	BytesGot         int64 `ctr:"gasnet.bytes_got" faultfree:"nonzero" help:"one-sided get payload bytes"`
	PeersContacted   int   // distinct peers other than itself this PE sent anything to: the paper's Table I metric (a set size: not summable, so not a counter)

	// Connection-lifecycle recovery interleaved with PE-failure detection:
	// the resilience table prints two rows abreast, link-level recovery on
	// the left and the failure plane on the right.
	LinkFaults      int `ctr:"gasnet.link_faults" label:"link faults" table:"resilience" help:"broken RC connections this PE detected and tore down"`
	PEFailures      int `ctr:"gasnet.pe_failures" label:"pe failures" table:"resilience" help:"peers this PE's detector confirmed dead (crash or wedge)"`
	Reconnects      int `ctr:"gasnet.reconnects" label:"reconnects" table:"resilience" help:"connections re-established after a fault or eviction"`
	HeartbeatsSent  int `ctr:"gasnet.heartbeats_sent" label:"heartbeats sent" table:"resilience" help:"explicit failure-detector heartbeat probes sent"`
	Evictions       int `ctr:"gasnet.evictions" label:"evictions" table:"resilience" help:"idle connections LRU-evicted under the live-QP cap (-qp-cap) or adapter budget pressure"`
	FalseSuspicions int `ctr:"gasnet.false_suspicions" label:"false suspicions" table:"resilience" help:"suspicions cleared by a late sign of life"`
	Retransmits     int `ctr:"gasnet.retransmits" label:"retransmits" table:"resilience" help:"UD handshake control-frame retransmissions"`

	// Control plane (PMI resilience and undecodable UD frames).
	PMIRetries        int `ctr:"pmi.retries" label:"pmi retries" table:"resilience" help:"PMI ops retried after a transient fault"`
	PMITimeouts       int `ctr:"pmi.timeouts" label:"pmi timeouts" table:"resilience" help:"PMI ops that failed permanently (retry budget exhausted)"`
	FallbackExchanges int `ctr:"gasnet.fallback_exchanges" label:"fallback exchanges" table:"resilience" help:"Iallgather endpoint exchanges this PE degraded to Put-Fence-Get"`
	CorruptFrames     int `ctr:"gasnet.corrupt_frames" label:"corrupt frames" table:"resilience" help:"UD control frames discarded because they did not decode"`

	// Resource pressure (finite adapter budgets, backpressure and
	// degradation ladders).
	CreditStalls     int `ctr:"gasnet.credit_stalls" label:"credit stalls" table:"resilience" help:"sends that blocked on a zero receive-credit window"`
	RNRNaks          int `ctr:"gasnet.rnr_naks" label:"rnr naks" table:"resilience" help:"sends NAKed receiver-not-ready and retried"`
	AllocFailures    int `ctr:"gasnet.alloc_failures" label:"alloc failures" table:"resilience" help:"QP/MR allocations refused (budget or injected)"`
	BounceFallbacks  int `ctr:"gasnet.bounce_fallbacks" label:"bounce fallbacks" table:"resilience" help:"heap registrations degraded to bounce-buffering after an MR refusal"`
	AdmissionRejects int `ctr:"gasnet.admission_rejects" label:"admission rejects" table:"resilience" help:"connection REQs this PE rejected at its QP cap"`

	// Data-plane integrity (session.go): RC payload faults the adapter could
	// not absorb and the exactly-once recovery machinery that did.
	RCCorruptFrames      int `ctr:"gasnet.rc_corrupt_frames" label:"rc corrupt frames" table:"resilience" help:"RC work requests failed after the adapter's corrupted-packet retries ran out"`
	TornWrites           int `ctr:"gasnet.torn_writes" label:"torn writes" table:"resilience" help:"multi-packet RDMA writes torn mid-transfer by a link fault"`
	DupOpsSuppressed     int `ctr:"gasnet.dup_ops_suppressed" label:"dup ops suppressed" table:"resilience" help:"duplicate framed ops suppressed by the dedup ledger"`
	IntegrityRetransmits int `ctr:"gasnet.integrity_retransmits" label:"integrity retransmits" table:"resilience" help:"framed sends replayed after a timeout or a reconnect"`

	// Multi-rail fault plane (rail failures, path migration and
	// network-partition tolerance).
	PathMigrations       int `ctr:"gasnet.path_migrations" label:"path migrations" table:"resilience" help:"RC QPs migrated to their alternate path (IB APM), no teardown"`
	RailFailovers        int `ctr:"gasnet.rail_failovers" label:"rail failovers" table:"resilience" help:"connections re-established on another rail after APM was impossible"`
	PartitionSuspensions int `ctr:"gasnet.partition_suspensions" label:"partition suspends" table:"resilience" help:"peers suspended as partitioned instead of confirmed dead"`
	PartitionHeals       int `ctr:"gasnet.partition_heals" label:"partition heals" table:"resilience" help:"suspended peers recovered after their partition healed"`

	// Flows is this PE's row of the communication matrix: per-peer op and
	// byte counts split by kind (put/get/atomic/am/coll/barrier/ctrl),
	// sorted by peer. Nil unless obs.Config.Flows was enabled.
	Flows []obs.FlowEdge
}

type pendingWR struct {
	wr  ib.SendWR
	enq int64 // virtual enqueue time
}

type conn struct {
	slot // handshake state: changed only by driveLocked, through step (fsm.go)

	qp      *ib.QP
	loopbk  *ib.QP // second endpoint of a self-connection
	peerUD  ib.Dest
	firstTx int64 // virtual time of first REQ/REP transmission
	lastTx  int64 // virtual time of the last one (retransmission baseline)
	pending []pendingWR
	readyVT int64
	// sendVT is the connection's send-queue time: when it became ready, or
	// the end of the last flush of queued work. A post whose own clock is
	// still behind it departs from here, so nothing leaves on a connection
	// before the connection exists, whichever goroutine got there first.
	// Zero once the PE's clock has passed it.
	sendVT int64

	epoch   uint64 // teardown generation, so racing fault reports are applied once
	lastUse uint64 // LRU stamp for idle-connection eviction

	// The data-plane session, the receive-credit window (session.go) and the
	// failure detector's view of the peer (detector.go) are values of their
	// own, present only where they can matter: on a lossy fabric, against finite
	// receive queues, with the detector armed. A fault-free, unbudgeted run
	// allocates none of them.
	sess   *session
	credit *creditWindow
	health *health

	// quiet counts consecutive timeouts (handshake legs and data replays
	// alike) since anything was last heard from the peer. Close stops waiting
	// for a peer at closeQuiet, and at maxQuiet the timeouts themselves stop:
	// a peer that never answers must not generate fabric traffic forever —
	// only the failure detector (or the watchdog) can end that silence.
	quiet uint8

	contacted bool // this PE sent the peer something (Stats.PeersContacted counts the others)
	// dead: the peer was confirmed dead, by our detector or by the abort that
	// told us. Every operation against it fails fast with ErrPeerDead.
	dead bool
}

// Conduit is one PE's endpoint on the fabric.
type Conduit struct {
	cfg    Config
	model  *vclock.CostModel
	clk    *vclock.Clock
	mgrClk *vclock.Clock // the connection-manager "thread" clock (paper Fig. 4)

	udQP *ib.QP
	cq   *ib.CQ

	handlers   [16]atomic.Pointer[Handler] // written under connMu, read by the receive path without it
	deferredAM map[uint8][]deferredAM      // guarded by connMu

	connMu      sync.Mutex
	connCond    *vclock.Cond
	conns       connTable
	nReady      int
	lastReadyVT int64  // max virtual time any connection became ready
	useSeq      uint64 // LRU counter for eviction (guarded by connMu)
	heldReqs    []heldReq

	// The job's timer queue (nil on a lossless, unbudgeted fabric) and this
	// PE's one retransmission timer on it, armed for the earliest deadline
	// any slot has (guarded by connMu).
	sched *vclock.Sched
	rtx   *vclock.Timer
	rtxAt int64

	done completions // what is in flight and who waits for it (completion.go)

	// Data-plane session layer (session.go): armed only on lossy fabrics;
	// rqDepth is the adapters' receive-queue depth (0: unbounded, no credit
	// windows).
	lossy   bool
	rqDepth int

	// udMu single-flights endpoint resolution: the app thread, handshake
	// recovery goroutines and the heartbeat prober can all race into
	// resolveUD, and the fallback path below runs a blocking Put-Fence that
	// must execute exactly once.
	udMu       sync.Mutex
	udVals     []string
	udOp       *pmi.AllgatherOp
	udFromKVS  bool
	udResolved atomic.Bool // udVals/udFromKVS are final: lookups need no lock
	exchanged  atomic.Bool
	ready      atomic.Bool

	stats Stats // see Stats for who may touch which field

	// Observability (nil-safe: a disabled plane leaves all of these nil).
	obs      *obs.PE
	hConnect *obs.Hist // client-perceived connect latency (REQ tx -> ready)
	hFirstOp *obs.Hist // queued-op penalty (enqueue -> connection ready)
	hHBRTT   *obs.Hist // heartbeat probe -> ack round trip
	// Gauge series (per-rank instances) and the job's incident ledger.
	gRetFrames *obs.Gauge  // retained (unacked) session frames
	gRetBytes  *obs.Gauge  // retained session frame bytes
	gCredits   *obs.Gauge  // receive-credit slots in flight
	gSuspect   *obs.Gauge  // peers currently under suspicion
	led        *obs.Ledger // causal incident ledger (nil-safe)

	// Failure detector and abort plane (failure.go). What the detector knows
	// about a peer lives in the peer's connection slot (conn.health, conn.dead).
	hbArmed   bool
	netFaulty bool                  // port/rail/partition faults are scheduled: consult the schedule
	hbTimer   *vclock.Timer         // the detector's tick (guarded by connMu)
	hbOff     bool                  // Close stopped the detector: no further ticks (guarded by connMu)
	selfState atomic.Int32          // selfAlive/selfKilled/selfWedged
	abortErr  atomic.Pointer[error] // published once, by raiseLocal
	abortCh   chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New creates the conduit, its UD endpoint and its progress goroutine. The
// UD QP creation cost is charged to the PE's clock.
func New(cfg Config) *Conduit {
	if cfg.NProcs <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.NProcs {
		panic(fmt.Sprintf("gasnet: bad rank/nprocs %d/%d", cfg.Rank, cfg.NProcs))
	}
	c := &Conduit{
		cfg:     cfg,
		model:   cfg.HCA.Fabric().Model(),
		clk:     cfg.Clock,
		mgrClk:  vclock.NewClock(cfg.Clock.Now()),
		cq:      ib.NewCQ(),
		obs:     cfg.Obs,
		lossy:   cfg.HCA.Fabric().Lossy(),
		rqDepth: cfg.HCA.Limits().RQDepth,
		sched:   cfg.HCA.Fabric().Sched(),
		abortCh: make(chan struct{}),
	}
	if c.lossy {
		// The session layer's own active messages (framed atomics) use the
		// reserved handler ids; installed before the progress goroutine runs.
		req, rep := Handler(c.handleAtomicReq), Handler(c.handleAtomicRep)
		c.handlers[amAtomicReq].Store(&req)
		c.handlers[amAtomicRep].Store(&rep)
	}
	c.hConnect = c.obs.Hist("gasnet.connect_ns")
	c.hFirstOp = c.obs.Hist("gasnet.first_op_penalty_ns")
	c.hHBRTT = c.obs.Hist("gasnet.heartbeat_rtt_ns")
	c.gRetFrames = c.obs.Gauge("gasnet.retained_frames")
	c.gRetBytes = c.obs.Gauge("gasnet.retained_bytes")
	c.gCredits = c.obs.Gauge("gasnet.credits_in_flight")
	c.gSuspect = c.obs.Gauge("gasnet.suspected_peers")
	c.led = c.obs.Ledger()
	c.connCond = vclock.NewCond(&c.connMu, c.sched)
	c.done.cond = vclock.NewCond(&c.done.mu, c.sched)
	// The failure plane is in play — the detector armed, per-peer detector
	// state allocated — only when a PE or network failure is scheduled.
	c.netFaulty = cfg.HCA.Fabric().NetFaulty()
	c.hbArmed = !cfg.Heartbeat.Disable && c.sched != nil &&
		(cfg.Heartbeat.Enable || cfg.HCA.Fabric().PEFaulty() || c.netFaulty)
	c.conns = newConnTable(cfg.Mode, cfg.NProcs, c.lossy, c.rqDepth > 0, c.hbArmed)
	udQP, err := cfg.HCA.TryCreateQP(ib.UD, c.clk, nil, c.cq)
	if err != nil {
		// No control endpoint means no handshakes, no heartbeats, no in-band
		// abort: the PE can never make progress. Report out-of-band (the only
		// channel that exists yet) and die with the exhaustion code.
		ae := &AbortError{Origin: cfg.Rank, Dead: -1, Code: ExitResourceExhausted,
			Reason: fmt.Sprintf("rank %d: UD control endpoint allocation failed: %v", cfg.Rank, err)}
		cfg.PMI.RaiseAbort(pmi.AbortNotice{Origin: ae.Origin, Dead: ae.Dead, Code: ae.Code, Reason: ae.Reason})
		panic(fmt.Errorf("gasnet: attach: %w", ae))
	}
	c.udQP = udQP
	c.udQP.SetObs(c.obs)
	c.obs.Emit(c.clk.Now(), obs.LayerIB, "qp-create-ud", -1, 0)
	c.stats.QPsCreated++
	mustQP(c.udQP.ToInit())
	mustQP(c.udQP.ToRTR(ib.Dest{}))
	mustQP(c.udQP.ToRTS())
	if c.hbArmed {
		c.hbRearm(c.clk.Now())
	}
	if cfg.Mode != Static {
		// Cooperative adapter-wide eviction: siblings sharing this HCA may
		// ask us to release an idle RC endpoint when their allocations stall.
		// The static baseline has no reconnect path, so it never volunteers.
		cfg.HCA.RegisterRelief(c.reliefEvict)
	}
	c.wg.Add(1)
	go c.progress()
	cfg.PMI.OnAbort(c.pmiAbort)
	return c
}

func mustQP(err error) {
	if err != nil {
		panic("gasnet: qp setup: " + err.Error())
	}
}

// Rank returns this PE's rank.
func (c *Conduit) Rank() int { return c.cfg.Rank }

// NProcs returns the job size.
func (c *Conduit) NProcs() int { return c.cfg.NProcs }

// Mode returns the connection strategy in use.
func (c *Conduit) Mode() Mode { return c.cfg.Mode }

// Clock returns the PE's virtual clock.
func (c *Conduit) Clock() *vclock.Clock { return c.clk }

// Sched returns the job's timer queue (nil on a lossless, unbudgeted fabric),
// so layers built on the conduit can make their own blocking waits visible
// to it (vclock.NewCond).
func (c *Conduit) Sched() *vclock.Sched { return c.sched }

// Obs returns the PE's observability recorder (obs.Nop when disabled), so
// layers built on the conduit (mpi, shmem) share one recorder per PE.
func (c *Conduit) Obs() *obs.PE { return c.obs }

// UDAddr returns this PE's UD endpoint address.
func (c *Conduit) UDAddr() ib.Dest { return c.udQP.Addr() }

// SetReady marks this PE willing to accept incoming connection requests
// (i.e. its segments are registered). Requests that arrived earlier were
// held and are served now, at this PE's current virtual time — the paper's
// section IV-E treatment of early arrivals ("the reply message is held
// until the server is ready").
//
// The "conn-req-held" trace event is emitted here rather than at arrival,
// and only for requests whose virtual arrival time genuinely precedes this
// PE's ready time: a request that arrived early in *real* time but late in
// *virtual* time is a scheduling artifact, and tracing it would make the
// trace depend on the goroutine schedule.
func (c *Conduit) SetReady() {
	c.mgrClk.AdvanceTo(c.clk.Now())
	readyVT := c.clk.Now()
	c.ready.Store(true)
	c.connMu.Lock()
	held := c.heldReqs
	c.heldReqs = nil
	c.connMu.Unlock()
	// Replay in virtual-arrival order, not wall-arrival order: concurrent
	// early requests land in heldReqs in goroutine-schedule order, and the
	// replay mutates shared manager state (eviction LRU, connection slots),
	// so a schedule-dependent order would leak into traces and the flow
	// matrix. (src, seq) breaks VT ties deterministically.
	sort.Slice(held, func(i, j int) bool {
		a, b := held[i], held[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.m.SrcRank != b.m.SrcRank {
			return a.m.SrcRank < b.m.SrcRank
		}
		return a.m.Seq < b.m.Seq
	})
	for _, h := range held {
		if h.at < readyVT {
			c.event("conn-req-held", int(h.m.SrcRank), h.at)
		}
		// Replay on a per-request service clock starting at the later of the
		// request's arrival and our ready time, so the replayed handshake's
		// timestamps do not depend on the wall order the requests landed in.
		svc := vclock.NewClock(readyVT)
		svc.AdvanceTo(h.at)
		svc.Advance(c.model.ConnReqProcess)
		c.handleLeg(evReq, h.m, h.at, svc)
		c.mgrClk.AdvanceTo(svc.Now())
	}
}

// ExchangeEndpoints publishes this PE's UD endpoint out-of-band. In static
// or blocking mode it performs the Put-Fence sequence (the Fence cost lands
// on the critical path); otherwise it launches a PMIX_Iallgather whose
// completion is deferred until the first connection attempt needs it.
//
// A non-nil return means the blocking exchange failed permanently: the
// control plane is unreachable and the job has been aborted (the error is
// the *AbortError, exit code ExitPMIFailure). The non-blocking launch never
// fails here — a lost exchange surfaces at resolveUD, where the fallback
// ladder runs.
func (c *Conduit) ExchangeEndpoints() error {
	if c.cfg.Mode == Static || c.cfg.BlockingPMI {
		if err := c.putFence("blocking endpoint exchange"); err != nil {
			return err
		}
		c.udResolved.Store(true)
	} else {
		c.udOp = c.cfg.PMI.IAllgather(encodeDest(c.udQP.Addr()))
	}
	c.exchanged.Store(true)
	return nil
}

// putFence publishes this PE's UD endpoint through the blocking Put-Fence
// sequence, after which lookups read the KVS directly (udFromKVS). what names
// the exchange in the abort a permanent failure raises (ExitPMIFailure).
func (c *Conduit) putFence(what string) error {
	if err := c.cfg.PMI.Put(pmi.KeyFor("ud", c.cfg.Rank), encodeDest(c.udQP.Addr())); err != nil {
		return c.pmiFail(what+" (put)", err)
	}
	if err := c.cfg.PMI.Fence(); err != nil {
		if aerr := c.Err(); aerr != nil {
			return aerr // the fence was released by someone else's abort
		}
		return c.pmiFail(what+" (fence)", err)
	}
	c.udFromKVS = true
	return nil
}

// pmiFail converts a permanent control-plane failure into a job abort with
// the distinct ExitPMIFailure exit code, so a dead launcher can never leave
// the job hanging: the abort reaches every PE through the PMI kill channel,
// which is assumed reliable even when the key-value service is not.
func (c *Conduit) pmiFail(what string, err error) error {
	ae := &AbortError{
		Origin: c.cfg.Rank, Dead: -1, Code: ExitPMIFailure,
		Reason: fmt.Sprintf("control plane failed on PE %d: %s: %v", c.cfg.Rank, what, err),
	}
	c.Abort(ae)
	return ae
}

// resolveUD returns a peer's UD endpoint, completing the out-of-band
// exchange if it is still outstanding (PMIX_Wait semantics). If the
// non-blocking exchange was lost to a control-plane fault, it transparently
// degrades to the blocking Put-Fence-Get ladder the paper's design replaced.
func (c *Conduit) resolveUD(peer int) (ib.Dest, error) {
	return c.resolveUDOpt(peer, true)
}

// resolveUDOpt is resolveUD with the fallback ladder optional: background
// callers (the heartbeat prober, the partition verdict) must never block in a
// Put-Fence collective or advance the PE's critical-path clock, so they pass
// fallback=false and simply skip peers whose endpoints are unresolved.
func (c *Conduit) resolveUDOpt(peer int, fallback bool) (ib.Dest, error) {
	if !c.exchanged.Load() {
		return ib.Dest{}, fmt.Errorf("gasnet: endpoint exchange not started")
	}
	if !c.udResolved.Load() {
		if err := c.completeExchange(peer, fallback); err != nil {
			return ib.Dest{}, err
		}
	}
	if c.udFromKVS {
		s, err := c.cfg.PMI.Lookup(pmi.KeyFor("ud", peer))
		if err != nil {
			if errors.Is(err, pmi.ErrTimeout) && fallback {
				return ib.Dest{}, c.pmiFail(fmt.Sprintf("endpoint lookup for rank %d", peer), err)
			}
			// Keep the typed cause visible: "never published" points at a
			// startup bug, "lost to injected server crash" at the fault plane.
			return ib.Dest{}, fmt.Errorf("gasnet: no UD endpoint for rank %d: %w", peer, err)
		}
		return decodeDest(s)
	}
	return decodeDest(c.udVals[peer])
}

// completeExchange finishes the outstanding non-blocking endpoint exchange
// (PMIX_Wait), degrading to the blocking ladder when it was lost and fallback
// allows. Once it returns nil the endpoint table is final and lookups take no
// lock — so a background caller (an acknowledgement, a probe) is never skipped
// because somebody else happened to be looking a peer up at that moment.
func (c *Conduit) completeExchange(peer int, fallback bool) error {
	if fallback {
		c.udMu.Lock()
	} else if !c.udMu.TryLock() {
		// A resolution (possibly the blocking fallback collective) is in
		// flight on another goroutine. A background caller (a probe on the
		// timer queue, an acknowledgement) skips rather than wait: the
		// collective may itself be waiting on events that caller's goroutine
		// would go on to run.
		return fmt.Errorf("gasnet: endpoint resolution in flight for rank %d", peer)
	}
	defer c.udMu.Unlock()
	if !c.udFromKVS && c.udVals == nil {
		vals, err := c.udOp.WaitErr(c.cfg.PMI)
		switch {
		case err == nil:
			c.udVals = vals
		case errors.Is(err, pmi.ErrAborted):
			if aerr := c.Err(); aerr != nil {
				return aerr
			}
			return fmt.Errorf("gasnet: endpoint exchange aborted")
		case !fallback:
			return fmt.Errorf("gasnet: endpoint exchange lost: %w", err)
		default:
			// Graceful degradation: the non-blocking allgather is lost for
			// every participant (the lost state is shared and sticky), so all
			// PEs converge here and re-run the exchange as the blocking
			// Put-Fence-Get sequence. Only a second permanent failure aborts.
			if ferr := c.fallbackExchangeLocked(err); ferr != nil {
				return ferr
			}
		}
	}
	c.udResolved.Store(true)
	return nil
}

// fallbackExchangeLocked re-publishes this PE's UD endpoint through the
// blocking Put-Fence path after the Iallgather was lost. Caller holds udMu.
// A permanent failure of the fallback itself aborts the job.
func (c *Conduit) fallbackExchangeLocked(cause error) error {
	now := c.clk.Now()
	c.event("pmi-fallback", -1, now)
	c.obs.Emit(now, obs.LayerPMI, "pmi-fallback", -1, 0,
		obs.Attr{Key: "cause", Val: cause.Error()})
	c.led.Act("pmi", c.cfg.Rank, now, "fallback-exchange")
	if err := c.putFence("fallback endpoint exchange"); err != nil {
		return err
	}
	c.bump(&c.stats.FallbackExchanges, 1)
	return nil
}

// deferredAM is an active message that arrived before its handler was
// registered (e.g. MPI traffic reaching a PE still wiring up its hybrid
// layer). It is replayed, in arrival order, at registration.
type deferredAM struct {
	src     int
	args    [4]uint64
	payload []byte
	at      int64
}

// RegisterHandler installs an active-message handler and replays any
// messages for this id that arrived before registration. Clients own ids
// 0..13; it panics on the conduit's reserved 14..15 and past the table.
func (c *Conduit) RegisterHandler(id uint8, h Handler) {
	if id >= amAtomicReq {
		panic(fmt.Sprintf("gasnet: handler id %d is reserved for the conduit or outside the table", id))
	}
	c.connMu.Lock()
	c.handlers[id].Store(&h)
	queued := c.deferredAM[id]
	delete(c.deferredAM, id)
	c.connMu.Unlock()
	for _, m := range queued {
		h(m.src, m.args, m.payload, m.at)
	}
}

// AMRequest sends an active message. It never blocks on the network: if no
// connection to the peer exists yet it is queued behind the on-demand
// handshake. The message is attributed to the flow matrix as generic AM
// traffic; layers with a more precise classification (collective rounds,
// barriers) use AMRequestKind.
func (c *Conduit) AMRequest(peer int, handler uint8, args [4]uint64, payload []byte) error {
	return c.AMRequestKind(peer, handler, args, payload, obs.FlowAM)
}

// begin is the one prologue of every operation towards peer: this PE is
// alive (and the job not aborted), the peer is monitored, the operation — n
// bytes of kind — is counted and lands in the flow row, and what its
// completion will release (op; nothing for an unsignaled send) enters the
// completion table. It returns the WRID the work request must carry.
func (c *Conduit) begin(peer int, kind obs.FlowKind, n int, op pendingOp) (uint64, error) {
	if err := c.checkAlive(); err != nil {
		return 0, err
	}
	switch kind {
	case obs.FlowPut:
		atomic.AddInt64(&c.stats.PutsIssued, 1)
		atomic.AddInt64(&c.stats.BytesPut, int64(n))
	case obs.FlowGet:
		atomic.AddInt64(&c.stats.GetsIssued, 1)
		atomic.AddInt64(&c.stats.BytesGot, int64(n))
	case obs.FlowAtomic:
		atomic.AddInt64(&c.stats.AtomicsIssued, 1)
	default:
		atomic.AddInt64(&c.stats.AMsSent, 1)
	}
	c.MonitorPeer(peer) // every peer we talk to is a peer whose death would strand us
	c.obs.Flow(peer, kind, int64(n))
	if op.hold || op.blocked {
		return c.done.add(op), nil
	}
	return 0, nil
}

// AMRequestKind is AMRequest with an explicit flow-matrix classification
// for the message (obs.FlowAM, obs.FlowColl, obs.FlowBarrier).
func (c *Conduit) AMRequestKind(peer int, handler uint8, args [4]uint64, payload []byte, kind obs.FlowKind) error {
	return c.amRequest(peer, handler, args, payload, kind, false)
}

// AMRequestFenced is AMRequest with Quiet-fence semantics: the send counts
// toward the outstanding-operation window until it has been posted to the
// wire, so a Quiet issued afterwards cannot return while the message is
// still queued behind an in-flight handshake. Put-with-signal uses it for
// the signal message, whose delivery OpenSHMEM requires Quiet to fence.
func (c *Conduit) AMRequestFenced(peer int, handler uint8, args [4]uint64, payload []byte) error {
	return c.amRequest(peer, handler, args, payload, obs.FlowAM, true)
}

// amRequest sends one client active message; a fenced one holds a completion
// entry until it is on the wire. Like RegisterHandler it refuses the ids a
// client does not own, which the target would drop or misroute.
func (c *Conduit) amRequest(peer int, handler uint8, args [4]uint64, payload []byte, kind obs.FlowKind, fenced bool) error {
	if handler >= amAtomicReq {
		return fmt.Errorf("gasnet: handler id %d is reserved for the conduit or outside the table", handler)
	}
	wrid, err := c.begin(peer, kind, amHdrLen+len(payload), pendingOp{hold: fenced})
	if err != nil {
		return err
	}
	data := encodeAM(handler, c.cfg.Rank, args, payload)
	return c.post(peer, ib.SendWR{Op: ib.OpSend, WRID: wrid, Data: data, NoSendCompletion: !fenced}, false)
}

// Put issues a one-sided RDMA write of data into (raddr, rkey) at peer. It
// returns once the source buffer is reusable; remote completion is deferred
// to Quiet.
func (c *Conduit) Put(peer int, raddr uint64, rkey uint32, data []byte) error {
	wrid, err := c.begin(peer, obs.FlowPut, len(data), pendingOp{hold: true})
	if err != nil {
		return err
	}
	return c.post(peer, ib.SendWR{Op: ib.OpRDMAWrite, WRID: wrid, RemoteAddr: raddr, RKey: rkey, Data: data}, true)
}

// GetNBI issues a non-blocking-implicit RDMA read: it returns immediately
// and buf is guaranteed filled once Quiet returns (shmem_getmem_nbi
// semantics).
func (c *Conduit) GetNBI(peer int, raddr uint64, rkey uint32, buf []byte) error {
	wrid, err := c.begin(peer, obs.FlowGet, len(buf), pendingOp{hold: true, buf: buf})
	if err != nil {
		return err
	}
	return c.post(peer, ib.SendWR{Op: ib.OpRDMARead, WRID: wrid, RemoteAddr: raddr, RKey: rkey, Len: len(buf)}, true)
}

// Get issues a blocking RDMA read of len(buf) bytes from (raddr, rkey) at
// peer into buf.
func (c *Conduit) Get(peer int, raddr uint64, rkey uint32, buf []byte) error {
	wrid, err := c.begin(peer, obs.FlowGet, len(buf), pendingOp{blocked: true, buf: buf})
	if err != nil {
		return err
	}
	c.post(peer, ib.SendWR{Op: ib.OpRDMARead, WRID: wrid, RemoteAddr: raddr, RKey: rkey, Len: len(buf)}, true)
	_, err = c.await(wrid) // which reports a refused post, too
	return err
}

// FetchAdd atomically adds delta to the remote little-endian uint64 at
// (raddr, rkey) and returns the previous value.
func (c *Conduit) FetchAdd(peer int, raddr uint64, rkey uint32, delta uint64) (uint64, error) {
	return c.atomicOp(peer, ib.SendWR{Op: ib.OpFetchAdd, RemoteAddr: raddr, RKey: rkey, Add: delta})
}

// CompareSwap atomically replaces the remote value with swap if it equals
// compare, returning the previous value.
func (c *Conduit) CompareSwap(peer int, raddr uint64, rkey uint32, compare, swap uint64) (uint64, error) {
	return c.atomicOp(peer, ib.SendWR{Op: ib.OpCmpSwap, RemoteAddr: raddr, RKey: rkey, Compare: compare, Swap: swap})
}

// Swap atomically replaces the remote value, returning the previous value.
func (c *Conduit) Swap(peer int, raddr uint64, rkey uint32, swap uint64) (uint64, error) {
	return c.atomicOp(peer, ib.SendWR{Op: ib.OpSwap, RemoteAddr: raddr, RKey: rkey, Swap: swap})
}

func (c *Conduit) atomicOp(peer int, wr ib.SendWR) (old uint64, err error) {
	// Atomics operate on one uint64.
	if wr.WRID, err = c.begin(peer, obs.FlowAtomic, 8, pendingOp{blocked: true}); err != nil {
		return 0, err
	}
	if c.lossy {
		// On a lossy fabric atomics ride framed active messages so the dedup
		// ledger guards them: a fabric-level atomic whose ACK is lost would be
		// re-executed by a replay, double-applying the side effect.
		wr = c.atomicOverAM(wr)
	}
	c.post(peer, wr, true)
	return c.await(wr.WRID)
}

// Quiet blocks until all outstanding Puts have completed remotely
// (shmem_quiet semantics) and advances the clock to the last completion.
// On a killed/wedged PE or after a job abort it panics with the liveness
// error, like the upper layers' own blocking waits.
func (c *Conduit) Quiet() {
	if err := c.checkAlive(); err != nil {
		panic(err)
	}
	t := &c.done
	t.mu.Lock()
	for t.holds > 0 || t.unacked > 0 {
		if err := c.LivenessErr(); err != nil {
			t.mu.Unlock()
			panic(err)
		}
		t.cond.Wait()
	}
	v := t.lastVT
	t.mu.Unlock()
	c.clk.AdvanceTo(v)
}

// IntraNodeBarrier synchronizes the PEs of this node through the
// shared-memory barrier (paper section IV-E).
func (c *Conduit) IntraNodeBarrier() {
	rounds := int64(log2ceil(c.cfg.PPN))
	if rounds < 1 {
		rounds = 1
	}
	c.cfg.NodeBarrier.Wait(c.clk, rounds*c.model.IntraNodeLatency)
}

func log2ceil(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// RegisterHeapSize registers a size-byte symmetric heap with the adapter,
// running the pinned-memory degradation ladder: a refused registration
// (budget exceeded or injected allocation fault) falls back to a
// bounce-buffered region staged through the adapter's pre-registered slab;
// when even that path is closed the job aborts with ExitResourceExhausted —
// an OpenSHMEM PE without a registered heap can never serve remote memory.
// Nothing is backed yet: the runtime backs each allocation (ib.MR.Back).
func (c *Conduit) RegisterHeapSize(size int) *ib.MR {
	mr, err := c.cfg.HCA.TryRegisterMR(size, c.clk)
	if err == nil {
		return mr
	}
	c.bump(&c.stats.AllocFailures, 1)
	mr, berr := c.cfg.HCA.RegisterBounced(size, c.clk)
	if berr == nil {
		c.bump(&c.stats.BounceFallbacks, 1)
		c.event("mr-bounce", -1, c.clk.Now())
		return mr
	}
	ae := &AbortError{Origin: c.cfg.Rank, Dead: -1, Code: ExitResourceExhausted,
		Reason: fmt.Sprintf("rank %d: heap registration failed (%v) with no bounce path (%v)", c.cfg.Rank, err, berr)}
	c.Abort(ae)
	panic(fmt.Errorf("gasnet: heap registration: %w", ae))
}

// RegisterHeap is RegisterHeapSize(len(buf)) with buf backing the whole
// heap, for callers that own a dense buffer (benchmark/ladder).
func (c *Conduit) RegisterHeap(buf []byte) *ib.MR {
	mr := c.RegisterHeapSize(len(buf))
	mr.Back(0, buf)
	return mr
}

// Stats returns a snapshot of the PE's resource and traffic counters: an
// atomic load of each int64 field (see Stats), the rest under connMu.
func (c *Conduit) Stats() Stats {
	var s Stats
	src, dst := reflect.ValueOf(&c.stats).Elem(), reflect.ValueOf(&s).Elem()
	c.connMu.Lock()
	for i := 0; i < src.NumField(); i++ {
		if p, ok := src.Field(i).Addr().Interface().(*int64); ok {
			dst.Field(i).SetInt(atomic.LoadInt64(p))
		} else {
			dst.Field(i).Set(src.Field(i))
		}
	}
	c.conns.each(func(peer int, cn *conn) {
		if cn.contacted && peer != c.cfg.Rank {
			s.PeersContacted++
		}
	})
	c.connMu.Unlock()
	// The PMI client keeps its own retry/timeout tally; fold it in so the
	// launcher sees one per-PE resilience table.
	if c.cfg.PMI != nil {
		s.PMIRetries, s.PMITimeouts = c.cfg.PMI.RetryStats()
	}
	s.Flows = c.obs.FlowSnapshot()
	return s
}

// bump adds n to a counter of c.stats from code that does not hold connMu.
func (c *Conduit) bump(ctr *int, n int) {
	c.connMu.Lock()
	*ctr += n
	c.connMu.Unlock()
}

// event records a connection-lifecycle or failure-plane trace event in the
// observability plane's event ring (a no-op when events are off).
func (c *Conduit) event(kind string, peer int, vt int64) {
	c.obs.Emit(vt, obs.LayerGasnet, kind, peer, 0)
}

// Close drains outstanding traffic and shuts down the progress goroutine.
// The drain matters: a send queued behind a still-in-flight handshake (for
// example the last barrier message before finalize) is only delivered once
// the handshake completes, so teardown must wait for it or the peer would
// block forever. Established connections and QPs are then left to the
// garbage collector, like process teardown.
func (c *Conduit) Close() {
	c.closeOnce.Do(func() {
		// An aborted (or killed/wedged) PE skips the drain: its queued work
		// was failed, not delivered, and waiting for a dead peer's handshake
		// would hang teardown forever.
		//
		// On a lossy fabric the retained session windows must drain too: a
		// frame lost with a torn-down connection has not executed, and the
		// peer cannot finish its own final barrier without the replay —
		// quitting now would take the retransmission timer with us and strand
		// it. The wait is bounded by progress rather than time: a peer that
		// already executed everything (only the acknowledgements were lost)
		// may have closed and gone deaf, so once closeQuiet consecutive
		// timeouts have drawn nothing from it, what is left for that peer is
		// presumed executed and teardown proceeds. A live peer that still
		// needs the data always answers: every timeout replays, the peer
		// executes and acknowledges.
		//
		// The failure detector stops where Close begins: past the finalize
		// barrier a peer's silence is expected — it may simply have finished
		// and closed — and closeQuiet alone bounds the drain.
		c.connMu.Lock()
		c.hbOff = true
		c.hbTimer.Stop()
		c.connMu.Unlock()
		c.drain()
		c.closed.Store(true)
		c.connMu.Lock()
		c.rtx.Stop()
		c.connMu.Unlock()
		c.cq.Close()
		c.wg.Wait()
	})
}

// drain blocks until nothing this PE sent is still on its way: no handshake
// in flight, nothing queued behind one, no framed send unacknowledged — or
// the job aborted.
func (c *Conduit) drain() {
	c.connMu.Lock()
	for c.drainingLocked() && c.Err() == nil {
		c.connCond.Wait()
	}
	c.connMu.Unlock()
}

// drainingLocked reports whether Close still has something to wait for: a
// connection being established, queued traffic, or retained frames, towards
// a peer that has not gone quiet. Caller holds connMu.
func (c *Conduit) drainingLocked() bool {
	busy := false
	c.conns.each(func(_ int, cn *conn) {
		busy = busy || cn.quiet < closeQuiet && (cn.state == connConnecting ||
			cn.state == connAccepted || len(cn.pending) > 0 || cn.sess.retained() > 0)
	})
	return busy
}

// progress is the conduit's receive/progress loop: it dispatches UD control
// traffic (the connection manager), RC active messages, and send-side
// completions (routing them to blocked callers or the Quiet accounting).
func (c *Conduit) progress() {
	defer c.wg.Done()
	for {
		comp, ok := c.cq.Wait()
		if !ok {
			return
		}
		switch {
		case !comp.Recv:
			c.complete(comp.WRID, comp, nil)
		case comp.QPN == c.udQP.QPN():
			c.handleControl(comp)
		default:
			c.handleAM(comp)
		}
	}
}

func (c *Conduit) handleAM(comp ib.Completion) {
	if c.arrivalFate(comp.VTime) != selfAlive {
		return // a killed or wedged PE's software dispatches nothing
	}
	data, seq, ok := comp.Data, uint64(0), true
	if c.lossy {
		data, seq, ok = splitRCTrailer(data)
	}
	handler, src, args, payload, err := decodeAM(data)
	if !ok || err != nil || src < 0 || src >= c.cfg.NProcs {
		return // undecodable, or from no such rank: dropped
	}
	// Session layer before any handler: the frame's sender (the adapter
	// delivers its bytes intact) dedups it against its session.
	if c.lossy && !c.sessionAccept(src, seq, comp.VTime) {
		return
	}
	if int(handler) >= len(c.handlers) {
		return // a handler byte outside the table: dropped
	}
	c.noteAlive(src, comp.VTime, false)
	at := comp.VTime + c.model.AMProcess
	h := c.handlers[handler].Load()
	if h == nil {
		c.connMu.Lock()
		if h = c.handlers[handler].Load(); h == nil { // still: registration holds connMu
			if c.deferredAM == nil {
				c.deferredAM = make(map[uint8][]deferredAM)
			}
			c.deferredAM[handler] = append(c.deferredAM[handler],
				deferredAM{src: src, args: args, payload: payload, at: at})
		}
		c.connMu.Unlock()
		if h == nil {
			return
		}
	}
	(*h)(src, args, payload, at)
}
