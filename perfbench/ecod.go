package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/node"
	"repro/internal/trace"
)

// ecod2 cluster size: 24 servers split over two nodes, a 4-hour day of
// Poisson arrivals. No t=0 burst, so the netsim oracle below applies (see
// DESIGN.md "Real-process deployment").
const (
	ecodServers  = 24
	ecodHorizon  = 4 * time.Hour
	ecodArrivals = 150 // per hour
	ecodLifetime = 45 * time.Minute
	// ecodTimeout bounds one cluster run; a hung cluster is killed.
	ecodTimeout = 60 * time.Second
)

// ecodOutputs are the summary CSVs a run writes: node 0's merged figure
// and each node's shard summary.
var ecodOutputs = []string{"ecod.csv", "ecod_node0.csv", "ecod_node1.csv"}

// ecod2 runs the protocol day as two real ecod processes on loopback.
type ecod2 struct {
	bin, dir string
	cfg      node.ClusterConfig
	cfgPath  string
	port1    string
	runs     int
	ref      map[string][]byte
}

// setUp builds the cluster config and generates the day's workload the way
// every ecod node does at start-up.
func (e *ecod2) setUp(seed uint64) error {
	cfg := node.DefaultClusterConfig()
	cfg.Seed, cfg.Servers, cfg.Horizon = seed, ecodServers, ecodHorizon
	cfg.InitialVMs, cfg.ArrivalPerHour, cfg.MeanLifetime = 0, ecodArrivals, ecodLifetime
	if _, err := trace.GenerateChurn(cfg.Churn(), cfg.Seed); err != nil {
		return err
	}
	// Ports are chosen once per input, so every run of the input shares one
	// config and its outputs compare byte for byte.
	ports, err := freePorts(2)
	if err != nil {
		return err
	}
	half := ecodServers / 2
	cfg.Nodes = []node.NodeSpec{
		{ID: 0, Addr: "127.0.0.1:" + ports[0], Span: node.Span{Lo: 0, Hi: half}},
		{ID: 1, Addr: "127.0.0.1:" + ports[1], Span: node.Span{Lo: half, Hi: ecodServers}},
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	e.cfg, e.port1 = cfg, ports[1]
	e.cfgPath = filepath.Join(e.dir, "cluster.conf")
	return os.WriteFile(e.cfgPath, []byte(cfg.Canonical()), 0o644)
}

// freePorts asks the kernel for n unused loopback ports.
func freePorts(n int) ([]string, error) {
	var ports []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, strconv.Itoa(ln.Addr().(*net.TCPAddr).Port))
	}
	return ports, nil
}

// check runs one cluster day and holds it against the same day on the
// zero-latency netsim fabric: placements exactly, the self-organizing
// outcomes within the documented 2x band.
func (e *ecod2) check() error {
	out, _, _, err := e.cluster()
	if err != nil {
		return err
	}
	e.ref = out
	merged, err := readFigure(out["ecod.csv"])
	if err != nil {
		return err
	}
	proto := e.cfg.Proto()
	proto.Latency = netsim.LatencyModel{}
	pd, err := experiments.ProtocolDay(experiments.ProtocolDayOptions{
		RunConfig: experiments.RunConfig{
			Servers: e.cfg.Servers, NumVMs: e.cfg.InitialVMs, Horizon: e.cfg.Horizon, Seed: e.cfg.Seed,
		},
		Churn: e.cfg.Churn(),
		Proto: proto,
	})
	if err != nil {
		return err
	}
	//ecolint:allow float-eq — placements are counts, and the oracle is that both fabrics place exactly the same VMs
	if got, want := merged["placements"], pd.Column("placements")[0]; got != want || got <= 0 {
		return fmt.Errorf("placements: ecod %v, netsim %v", got, want)
	}
	within2x := func(name string, got, want float64) error {
		if got < want/2-1 || got > want*2+1 {
			return fmt.Errorf("%s: ecod %v vs netsim %v outside the 2x band", name, got, want)
		}
		return nil
	}
	if err := within2x("wakes", merged["wakes"], pd.Column("wakes")[0]); err != nil {
		return err
	}
	if err := within2x("final_active", merged["final_active"], pd.Column("final_active")[0]); err != nil {
		return err
	}
	return within2x("migrations",
		merged["migrations_low"]+merged["migrations_high"],
		pd.Column("migrations_low")[0]+pd.Column("migrations_high")[0])
}

// nodeRun is what the harness observes of one ecod process.
type nodeRun struct {
	wall, cpu time.Duration
	rssMB     float64
}

// cluster runs one day: node 1 starts first, node 0 once node 1 listens,
// so node 0's first dial never meets the reconnect backoff. Both nodes run
// on one CPU: every exchange hands control from one node to the other, and
// across CPUs each hand-off would wait for an idle virtual CPU to be woken
// by the host, a delay set by the host's other tenants rather than by the
// program. It returns the summary CSVs and what it observed of each
// process.
func (e *ecod2) cluster() (map[string][]byte, [2]nodeRun, time.Duration, error) {
	var runs [2]nodeRun
	e.runs++
	out := filepath.Join(e.dir, fmt.Sprintf("run%d", e.runs))
	defer os.RemoveAll(out)
	ctx, cancel := context.WithTimeout(context.Background(), ecodTimeout)
	defer cancel()
	cmd := func(id int) *exec.Cmd {
		c := exec.CommandContext(ctx, e.bin, "-config", e.cfgPath, "-node", strconv.Itoa(id), "-out", out)
		c.Stdout, c.Stderr = &bytes.Buffer{}, &bytes.Buffer{}
		return c
	}
	n1, n0 := cmd(1), cmd(0)

	cpu := pinCPU()
	start := time.Now()
	if err := startPinned(n1, cpu); err != nil {
		return nil, runs, 0, err
	}
	if err := waitListening(ctx, e.port1); err != nil {
		cancel()
		n1.Wait()
		return nil, runs, 0, fmt.Errorf("node 1: %w (%s)", err, n1.Stderr)
	}
	setup := time.Since(start)
	start0 := time.Now()
	if err := startPinned(n0, cpu); err != nil {
		cancel()
		n1.Wait()
		return nil, runs, 0, err
	}
	err0 := n0.Wait()
	runs[0].wall = time.Since(start0)
	err1 := n1.Wait()
	runs[1].wall = time.Since(start)
	for i, c := range []*exec.Cmd{n0, n1} {
		if ru, ok := c.ProcessState.SysUsage().(*syscall.Rusage); ok {
			runs[i].cpu = rusageCPU(ru)
			runs[i].rssMB = float64(ru.Maxrss) / 1024
		}
	}
	if err0 != nil {
		return nil, runs, 0, fmt.Errorf("node 0: %v (%s)", err0, n0.Stderr)
	}
	if err1 != nil {
		return nil, runs, 0, fmt.Errorf("node 1: %v (%s)", err1, n1.Stderr)
	}
	files := map[string][]byte{}
	for _, name := range ecodOutputs {
		b, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			return nil, runs, 0, err
		}
		files[name] = b
	}
	return files, runs, setup, nil
}

func (e *ecod2) run(lay layers) (runStats, error) {
	start := time.Now()
	out, nodes, setup, err := e.cluster()
	st := runStats{
		wall:  time.Since(start),
		cpu:   nodes[0].cpu + nodes[1].cpu,
		rssMB: nodes[0].rssMB + nodes[1].rssMB,
		setup: setup,
	}
	if err != nil {
		return st, err
	}
	for _, name := range ecodOutputs {
		if !bytes.Equal(out[name], e.ref[name]) {
			return st, fmt.Errorf("%s differs from the reference run:\n%s", name, out[name])
		}
	}
	if lay == nil {
		return st, nil
	}
	merged, err := readFigure(out["ecod.csv"])
	if err != nil {
		return st, err
	}
	// Node 0 drives the day and blocks in a barrier for every exchange;
	// the part of its life it was not on a CPU is barrier and socket wait.
	lay.share("barrier_wait_pct", nodes[0].wall-nodes[0].cpu, nodes[0].wall)
	lay.add("placements", merged["placements"])
	lay.add("migrations", merged["migrations_low"]+merged["migrations_high"])
	lay.add("activations", merged["wakes"])
	lay.add("messages", merged["messages"])
	lay.add("traffic_mb", merged["megabytes"])
	return st, nil
}

// pinCPU picks the CPU the nodes share: the highest one the harness may
// use.
func pinCPU() int {
	var mask cpuMask
	if err := mask.get(); err != nil {
		return -1
	}
	for cpu := len(mask)*64 - 1; cpu >= 0; cpu-- {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			return cpu
		}
	}
	return -1
}

// startPinned starts cmd restricted to cpu (unrestricted when cpu < 0).
// The child inherits the affinity of the thread that forks it, so the mask
// is set on a locked thread around the fork and restored after.
func startPinned(cmd *exec.Cmd, cpu int) error {
	if cpu < 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var old, one cpuMask
	if err := old.get(); err != nil {
		return err
	}
	one[cpu/64] = 1 << (cpu % 64)
	if err := one.set(); err != nil {
		return err
	}
	err := cmd.Start()
	if rerr := old.set(); err == nil {
		err = rerr
	}
	return err
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs, applied to the
// calling thread.
type cpuMask [16]uint64

func (m *cpuMask) get() error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	return nil
}

func (m *cpuMask) set() error {
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// waitListening polls the kernel until a loopback socket listens on port,
// without connecting to it.
func waitListening(ctx context.Context, port string) error {
	p, err := strconv.Atoi(port)
	if err != nil {
		return err
	}
	for {
		ok, err := listening(p)
		if err != nil || ok {
			return err
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("port %s not listening: %w", port, ctx.Err())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// listening asks the kernel's socket-diagnostics interface whether an IPv4
// TCP socket listens on port. Unlike a read of /proc/net/tcp, whose every
// line the kernel formats and which grows with the thousands of closed
// connections a run leaves in TIME_WAIT, the query visits listening
// sockets only.
func listening(port int) (bool, error) {
	const (
		netlinkSockDiag   = 4  // NETLINK_SOCK_DIAG
		sockDiagByFamily  = 20 // SOCK_DIAG_BY_FAMILY
		tcpListen         = 10 // TCP_LISTEN
		inetDiagReqV2Size = 56 // sizeof(struct inet_diag_req_v2)
	)
	fd, err := syscall.Socket(syscall.AF_NETLINK, syscall.SOCK_RAW|syscall.SOCK_CLOEXEC, netlinkSockDiag)
	if err != nil {
		return false, err
	}
	defer syscall.Close(fd)
	req := make([]byte, syscall.NLMSG_HDRLEN+inetDiagReqV2Size)
	binary.LittleEndian.PutUint32(req[0:], uint32(len(req)))
	binary.LittleEndian.PutUint16(req[4:], sockDiagByFamily)
	binary.LittleEndian.PutUint16(req[6:], syscall.NLM_F_REQUEST|syscall.NLM_F_DUMP)
	diag := req[syscall.NLMSG_HDRLEN:]
	diag[0], diag[1] = syscall.AF_INET, syscall.IPPROTO_TCP
	binary.LittleEndian.PutUint32(diag[4:], 1<<tcpListen)
	binary.BigEndian.PutUint16(diag[8:], uint16(port))
	if err := syscall.Sendto(fd, req, 0, &syscall.SockaddrNetlink{Family: syscall.AF_NETLINK}); err != nil {
		return false, err
	}
	found := false
	buf := make([]byte, 1<<16)
	for {
		n, _, err := syscall.Recvfrom(fd, buf, 0)
		if err != nil {
			return false, err
		}
		msgs, err := syscall.ParseNetlinkMessage(buf[:n])
		if err != nil {
			return false, err
		}
		for _, m := range msgs {
			switch m.Header.Type {
			case syscall.NLMSG_DONE:
				return found, nil
			case syscall.NLMSG_ERROR:
				return false, fmt.Errorf("sock_diag query failed")
			}
			// struct inet_diag_msg: family, state, timer, retrans, then the
			// socket id, whose first field is the big-endian source port.
			if len(m.Data) >= 6 && m.Data[1] == tcpListen && int(binary.BigEndian.Uint16(m.Data[4:])) == port {
				found = true
			}
		}
	}
}

// readFigure parses a one-row figure CSV into column -> value.
func readFigure(b []byte) (map[string]float64, error) {
	var lines []string
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	recs, err := csv.NewReader(strings.NewReader(strings.Join(lines, "\n"))).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) != 2 || len(recs[0]) != len(recs[1]) {
		return nil, fmt.Errorf("want a header and one row, got %d lines", len(recs))
	}
	row := map[string]float64{}
	for i, col := range recs[0] {
		v, err := strconv.ParseFloat(recs[1][i], 64)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", col, err)
		}
		row[col] = v
	}
	return row, nil
}
