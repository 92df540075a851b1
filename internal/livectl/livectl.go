// Package livectl orchestrates multi-process gossipd deployments over
// their HTTP control planes: it builds the daemon binary, spawns N
// processes hosting disjoint slices of one topology, seeds messages,
// releases the start gate, polls for convergence, and drains everything
// cleanly. It is the engine behind cmd/gossipctl and experiment E17 (live
// cluster vs simulator prediction).
package livectl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"algossip/internal/core"
	"algossip/internal/graph"
)

// Options configures a deployment. The zero value is not runnable: Procs,
// GraphName, GraphN and K are required.
type Options struct {
	// Bin is the gossipd binary; empty builds it into a temp dir first.
	Bin string
	// Procs is the number of daemon processes; the topology's nodes are
	// split across them in contiguous blocks.
	Procs int
	// Transport is the wire transport ("tcp" default, or "udp").
	Transport string
	// GraphName, GraphN, GraphSeed describe the shared topology, rebuilt
	// identically by every process (see graph.FromName).
	GraphName string
	GraphN    int
	GraphSeed uint64
	// K, Q, PayloadLen, GenSize, Interval, Seed, LossRate mirror the
	// daemon options.
	K          int
	Q          int
	PayloadLen int
	GenSize    int
	Interval   time.Duration
	Seed       uint64
	LossRate   float64
	// ChaosLatency/ChaosJitter/ChaosCorrupt set every process's initial
	// chaos-layer degradation (see runtime.ChaosTransport); the layer is
	// always present, so Chaos/Partition/Heal can degrade mid-run too.
	ChaosLatency time.Duration
	ChaosJitter  time.Duration
	ChaosCorrupt float64
	// ByzantineProcs launches the LAST this-many processes with
	// -chaos-corrupt 1: every frame they send is structurally corrupt, the
	// live-deployment twin of the simulator's polluting adversary. Their
	// nodes still receive honestly (inbound is untouched), so the whole
	// deployment — Byzantine nodes included — can converge as long as
	// every message is seeded at an honest process (SeedRoundRobin does
	// this automatically).
	ByzantineProcs int
	// Stderr receives every daemon's stderr (default os.Stderr). Writes
	// from different daemons are serialized, so it need not be safe for
	// concurrent use.
	Stderr io.Writer
}

// Cluster is a running multi-process deployment.
type Cluster struct {
	n      int
	k      int
	procs  []*proc
	home   map[core.NodeID]int
	client *http.Client
	tmpDir string // owned build dir, removed on Stop
}

type proc struct {
	cmd    *exec.Cmd
	ctl    string // control-plane base address host:port
	nodes  []core.NodeID
	byz    bool // launched with -chaos-corrupt 1
	waitCh chan error
}

// BuildGossipd compiles cmd/gossipd into dir and returns the binary path.
// The working directory must be inside the module.
func BuildGossipd(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "gossipd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "algossip/cmd/gossipd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("livectl: build gossipd: %w\n%s", err, out)
	}
	return bin, nil
}

// reservePorts grabs n ephemeral loopback ports, holding all the
// listeners open at once so the kernel cannot hand any of them out again
// (to our own HTTP dials, for instance) while the rest are assigned. The
// returned release func closes them all immediately before the daemons
// re-bind; that narrow window is the remaining race, which Launch covers
// by retrying.
func reservePorts(n int) (addrs []string, release func(), err error) {
	lns := make([]net.Listener, 0, n)
	release = func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			release()
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, release, nil
}

// Launch builds (if needed) and spawns the deployment, retrying a few
// times if a daemon loses the port-reservation race at startup. On
// success the processes are running and their control planes are
// reachable; call Stop (usually deferred) to tear everything down.
func Launch(ctx context.Context, opts Options) (*Cluster, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := launchOnce(ctx, opts)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func launchOnce(ctx context.Context, opts Options) (*Cluster, error) {
	if opts.Procs < 1 {
		return nil, fmt.Errorf("livectl: need at least 1 process, got %d", opts.Procs)
	}
	if opts.Stderr == nil {
		opts.Stderr = os.Stderr
	}
	// os/exec hands an *os.File to the child directly, but copies any
	// other writer on one goroutine per process: those copies must not
	// interleave writes.
	stderr := opts.Stderr
	if _, ok := stderr.(*os.File); !ok {
		stderr = &lockedWriter{w: stderr}
	}
	// Build the topology locally to learn the realized node count (some
	// families round the requested size).
	g, err := graph.FromName(opts.GraphName, opts.GraphN, core.NewRand(opts.GraphSeed))
	if err != nil {
		return nil, fmt.Errorf("livectl: %w", err)
	}
	n := g.N()
	if opts.Procs > n {
		return nil, fmt.Errorf("livectl: %d processes for %d nodes", opts.Procs, n)
	}
	if opts.ByzantineProcs < 0 || opts.ByzantineProcs >= opts.Procs {
		if opts.ByzantineProcs != 0 {
			return nil, fmt.Errorf("livectl: %d Byzantine of %d processes (need at least one honest)",
				opts.ByzantineProcs, opts.Procs)
		}
	}

	c := &Cluster{
		n:      n,
		k:      opts.K,
		home:   make(map[core.NodeID]int, n),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	bin := opts.Bin
	if bin == "" {
		dir, err := os.MkdirTemp("", "livectl-*")
		if err != nil {
			return nil, fmt.Errorf("livectl: %w", err)
		}
		c.tmpDir = dir
		if bin, err = BuildGossipd(ctx, dir); err != nil {
			c.Stop()
			return nil, err
		}
	}

	// Pre-reserve one gossip port per node; the peer map must be complete
	// before the first process starts.
	addrs, release, err := reservePorts(n)
	if err != nil {
		c.Stop()
		return nil, fmt.Errorf("livectl: reserve ports: %w", err)
	}
	peerParts := make([]string, n)
	for v := 0; v < n; v++ {
		peerParts[v] = fmt.Sprintf("%d=%s", v, addrs[v])
	}
	peers := strings.Join(peerParts, ",")
	release()

	for p := 0; p < opts.Procs; p++ {
		lo, hi := p*n/opts.Procs, (p+1)*n/opts.Procs
		byz := p >= opts.Procs-opts.ByzantineProcs
		nodes := make([]core.NodeID, 0, hi-lo)
		nodeParts := make([]string, 0, hi-lo)
		for v := lo; v < hi; v++ {
			nodes = append(nodes, core.NodeID(v))
			nodeParts = append(nodeParts, fmt.Sprint(v))
			c.home[core.NodeID(v)] = p
		}
		args := []string{
			"-http", "127.0.0.1:0",
			"-transport", orDefault(opts.Transport, "tcp"),
			"-nodes", strings.Join(nodeParts, ","),
			"-peers", peers,
			"-graph", opts.GraphName,
			"-n", fmt.Sprint(opts.GraphN),
			"-graph-seed", fmt.Sprint(opts.GraphSeed),
			"-k", fmt.Sprint(opts.K),
			"-q", fmt.Sprint(orDefaultInt(opts.Q, 256)),
			"-payload", fmt.Sprint(opts.PayloadLen),
			"-gen", fmt.Sprint(opts.GenSize),
			"-interval", orDefaultDur(opts.Interval, time.Millisecond).String(),
			"-seed", fmt.Sprint(opts.Seed),
			"-loss", fmt.Sprint(opts.LossRate),
			"-loss-seed", fmt.Sprint(core.SplitSeed(opts.Seed, uint64(1000+p))),
			"-chaos-seed", fmt.Sprint(core.SplitSeed(opts.Seed, uint64(2000+p))),
		}
		if opts.ChaosLatency > 0 {
			args = append(args, "-chaos-latency", opts.ChaosLatency.String())
		}
		if opts.ChaosJitter > 0 {
			args = append(args, "-chaos-jitter", opts.ChaosJitter.String())
		}
		corrupt := opts.ChaosCorrupt
		if byz {
			corrupt = 1
		}
		if corrupt > 0 {
			args = append(args, "-chaos-corrupt", fmt.Sprint(corrupt))
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			c.Stop()
			return nil, fmt.Errorf("livectl: %w", err)
		}
		if err := cmd.Start(); err != nil {
			c.Stop()
			return nil, fmt.Errorf("livectl: start gossipd: %w", err)
		}
		pr := &proc{cmd: cmd, nodes: nodes, byz: byz, waitCh: make(chan error, 1)}
		c.procs = append(c.procs, pr)

		// The first stdout line announces the control address.
		ctlCh := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				line := sc.Text()
				if a, ok := parseControlLine(line); ok {
					select {
					case ctlCh <- a:
					default:
					}
				}
			}
		}()
		go func() { pr.waitCh <- cmd.Wait() }()

		select {
		case pr.ctl = <-ctlCh:
		case err := <-pr.waitCh:
			pr.waitCh <- err
			c.Stop()
			return nil, fmt.Errorf("livectl: gossipd %d exited before announcing control address: %v", p, err)
		case <-time.After(30 * time.Second):
			c.Stop()
			return nil, fmt.Errorf("livectl: gossipd %d never announced its control address", p)
		case <-ctx.Done():
			c.Stop()
			return nil, ctx.Err()
		}
	}
	return c, nil
}

// lockedWriter serializes writes to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func parseControlLine(line string) (string, bool) {
	const marker = "control http://"
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(marker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	return rest, true
}

func orDefault(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

func orDefaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}

func orDefaultDur(v, d time.Duration) time.Duration {
	if v == 0 {
		return d
	}
	return v
}

// N is the realized node count; Procs the process count.
func (c *Cluster) N() int     { return c.n }
func (c *Cluster) Procs() int { return len(c.procs) }

// ControlAddrs lists every process's control address.
func (c *Cluster) ControlAddrs() []string {
	out := make([]string, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.ctl
	}
	return out
}

func (c *Cluster) post(ctx context.Context, ctl, path string, body any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+ctl+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("livectl: POST %s on %s: %s: %s", path, ctl, resp.Status, strings.TrimSpace(string(msg)))
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return nil
}

func (c *Cluster) get(ctx context.Context, ctl, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+ctl+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("livectl: GET %s on %s: %s", path, ctl, resp.Status)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// WaitHealthy blocks until every process answers /healthz.
func (c *Cluster) WaitHealthy(ctx context.Context) error {
	for _, p := range c.procs {
		for {
			if err := c.get(ctx, p.ctl, "/healthz", nil); err == nil {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("livectl: %s never became healthy: %w", p.ctl, ctx.Err())
			case <-time.After(50 * time.Millisecond):
			}
		}
	}
	return nil
}

// Seed places message index at node v (payload nil in rank-only mode).
func (c *Cluster) Seed(ctx context.Context, v core.NodeID, index int, payload []byte) error {
	p, ok := c.home[v]
	if !ok {
		return fmt.Errorf("livectl: node %d not in deployment", v)
	}
	body := map[string]any{"node": int(v), "index": index}
	if len(payload) > 0 {
		body["payload"] = base64.StdEncoding.EncodeToString(payload)
	}
	return c.post(ctx, c.procs[p].ctl, "/seed", body)
}

// HonestNodes lists the nodes hosted by non-Byzantine processes, in id
// order (all nodes when no process is Byzantine).
func (c *Cluster) HonestNodes() []core.NodeID {
	out := make([]core.NodeID, 0, c.n)
	for v := 0; v < c.n; v++ {
		if !c.procs[c.home[core.NodeID(v)]].byz {
			out = append(out, core.NodeID(v))
		}
	}
	return out
}

// SeedRoundRobin seeds message i at node i mod n — the paper's default
// assignment and the simulator's RoundRobinAssign. With Byzantine
// processes in the deployment, the round-robin runs over honest nodes
// only (the simulator's RoundRobinAssignOver): a message seeded behind a
// corrupting sender could never escape, making convergence impossible.
func (c *Cluster) SeedRoundRobin(ctx context.Context, payloads [][]byte) error {
	honest := c.HonestNodes()
	if len(honest) == 0 {
		return fmt.Errorf("livectl: no honest nodes to seed")
	}
	for i := 0; i < c.k; i++ {
		var pl []byte
		if payloads != nil {
			pl = payloads[i]
		}
		if err := c.Seed(ctx, honest[i%len(honest)], i, pl); err != nil {
			return err
		}
	}
	return nil
}

// Start releases every process's start gate; gossiping (and tick
// counting) begins now, after all seeding finished.
func (c *Cluster) Start(ctx context.Context) error {
	for _, p := range c.procs {
		if err := c.post(ctx, p.ctl, "/start", nil); err != nil {
			return err
		}
	}
	return nil
}

// NodeStatus mirrors the daemon's per-node status JSON.
type NodeStatus struct {
	ID       int  `json:"id"`
	Rank     int  `json:"rank"`
	K        int  `json:"k"`
	Done     bool `json:"done"`
	DoneTick int  `json:"doneTick"`
	Ticks    int  `json:"ticks"`
}

type statusResponse struct {
	Nodes []NodeStatus `json:"nodes"`
	Done  bool         `json:"done"`
}

// Status fetches every node's progress across all processes.
func (c *Cluster) Status(ctx context.Context) ([]NodeStatus, error) {
	var all []NodeStatus
	for _, p := range c.procs {
		var st statusResponse
		if err := c.get(ctx, p.ctl, "/status", &st); err != nil {
			return nil, err
		}
		all = append(all, st.Nodes...)
	}
	return all, nil
}

// WaitConverged polls until every node of every process reports full
// rank, returning the deployment's stopping time: the maximum DoneTick
// over all nodes (one tick approximates one synchronous round).
func (c *Cluster) WaitConverged(ctx context.Context) (int, error) {
	for {
		all, err := c.Status(ctx)
		if err != nil {
			return 0, err
		}
		done, maxTick := true, 0
		for _, n := range all {
			if !n.Done {
				done = false
				break
			}
			if n.DoneTick > maxTick {
				maxTick = n.DoneTick
			}
		}
		if done {
			return maxTick, nil
		}
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("livectl: convergence: %w", ctx.Err())
		case <-time.After(250 * time.Millisecond):
		}
	}
}

// ApplyTopology swaps every process's communication topology.
func (c *Cluster) ApplyTopology(ctx context.Context, family string, n int, seed uint64) error {
	for _, p := range c.procs {
		err := c.post(ctx, p.ctl, "/topology", map[string]any{"family": family, "n": n, "seed": seed})
		if err != nil {
			return err
		}
	}
	return nil
}

// ChaosRequest mirrors the daemon's POST /chaos body: only the fields
// present change state (nil pointer = leave alone).
type ChaosRequest struct {
	LatencyMS   *float64 `json:"latency_ms,omitempty"`
	JitterMS    *float64 `json:"jitter_ms,omitempty"`
	CorruptRate *float64 `json:"corrupt_rate,omitempty"`
	Partition   []int    `json:"partition,omitempty"`
	Heal        bool     `json:"heal,omitempty"`
}

// Chaos applies one degradation request to every process's chaos layer.
func (c *Cluster) Chaos(ctx context.Context, req ChaosRequest) error {
	for _, p := range c.procs {
		if err := c.post(ctx, p.ctl, "/chaos", req); err != nil {
			return err
		}
	}
	return nil
}

// ChaosProc applies one degradation request to a single process.
func (c *Cluster) ChaosProc(ctx context.Context, procIndex int, req ChaosRequest) error {
	if procIndex < 0 || procIndex >= len(c.procs) {
		return fmt.Errorf("livectl: no process %d", procIndex)
	}
	return c.post(ctx, c.procs[procIndex].ctl, "/chaos", req)
}

// Partition symmetrically cuts the given nodes off from the deployment:
// every process's chaos layer drops traffic addressed to them, so the
// partitioned nodes stop receiving from everyone (including each other's
// processes) until Heal.
func (c *Cluster) Partition(ctx context.Context, nodes []core.NodeID) error {
	ids := make([]int, len(nodes))
	for i, v := range nodes {
		ids[i] = int(v)
	}
	return c.Chaos(ctx, ChaosRequest{Partition: ids})
}

// Heal lifts every partition on every process. Byzantine processes keep
// their corrupt-rate (healing reconnects the network, it does not reform
// the adversary).
func (c *Cluster) Heal(ctx context.Context) error {
	return c.Chaos(ctx, ChaosRequest{Heal: true})
}

// Kill crashes one node (on its home process).
func (c *Cluster) Kill(ctx context.Context, v core.NodeID) error {
	p, ok := c.home[v]
	if !ok {
		return fmt.Errorf("livectl: node %d not in deployment", v)
	}
	return c.post(ctx, c.procs[p].ctl, "/kill", map[string]any{"node": int(v)})
}

// Metrics fetches one process's Prometheus text exposition.
func (c *Cluster) Metrics(ctx context.Context, procIndex int) (string, error) {
	if procIndex < 0 || procIndex >= len(c.procs) {
		return "", fmt.Errorf("livectl: no process %d", procIndex)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		"http://"+c.procs[procIndex].ctl+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Drain asks every process to shut down gracefully and waits for all of
// them to exit, reporting any non-zero exit status.
func (c *Cluster) Drain(ctx context.Context) error {
	for _, p := range c.procs {
		if err := c.post(ctx, p.ctl, "/drain", nil); err != nil {
			return err
		}
	}
	var firstErr error
	for i, p := range c.procs {
		select {
		case err := <-p.waitCh:
			p.waitCh <- err // keep Stop's Wait observation valid
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("livectl: gossipd %d exited uncleanly: %w", i, err)
			}
		case <-ctx.Done():
			return fmt.Errorf("livectl: drain: %w", ctx.Err())
		}
	}
	return firstErr
}

// Stop force-terminates any still-running process and removes the owned
// build directory. It is safe after Drain and as a deferred cleanup.
func (c *Cluster) Stop() {
	for _, p := range c.procs {
		select {
		case err := <-p.waitCh:
			p.waitCh <- err // already exited
		default:
			_ = p.cmd.Process.Kill()
			<-p.waitCh
		}
	}
	if c.tmpDir != "" {
		_ = os.RemoveAll(c.tmpDir)
	}
}
