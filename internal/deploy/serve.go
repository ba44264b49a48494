package deploy

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"shadowdb/internal/fault"
	"shadowdb/internal/gpm"
	"shadowdb/internal/msg"
	"shadowdb/internal/network"
	"shadowdb/internal/obs"
	"shadowdb/internal/obs/dist"
	"shadowdb/internal/runtime"
)

// Serve runs the node until SIGINT or SIGTERM and returns the process
// exit code: 2 for settings that cannot be run as given (reported on
// stderr before anything is opened), 1 for a resource that failed to
// open, 0 after a clean shutdown.
func Serve(n Node) int {
	fail := func(code int, err error) int {
		fmt.Fprintln(os.Stderr, err)
		return code
	}
	// The topology file is read here, once; every later step takes cl.
	cl, err := n.Load()
	var m *members
	if err == nil {
		m, err = n.check(cl)
	}
	if err != nil {
		return fail(2, err)
	}
	var plan fault.Plan
	if n.FaultPlan != "" {
		if plan, err = fault.Load(n.FaultPlan); err != nil {
			return fail(2, err)
		}
	}
	id := msg.Loc(n.ID)
	lv, _ := obs.ParseLevel(n.LogLevel) // check has parsed it
	obs.Default.SetLogLevel(lv)
	obs.Default.SetLogStream(os.Stderr)
	obs.Default.SetNode(id)

	tcp, err := network.NewTCP(id, cl.Topology.Directory())
	if err != nil {
		return fail(1, err)
	}
	var tr network.Transport = tcp
	if n.MaxInflight > 0 {
		// With admission control on, expired work is refused at every
		// hop: envelopes whose deadline already passed are dropped on
		// receive before they cost protocol work.
		tcp.EnforceDeadlines(func() int64 { return time.Now().UnixNano() })
	}
	if n.FaultPlan != "" {
		// Faults ride the node's wall clock from process start. Crash
		// windows become blackholes: a real process cannot be crashed
		// from inside, but cutting all of its traffic is the same fault
		// to the rest of the cluster.
		inj := fault.NewInjector(plan, nil)
		inj.SetObs(obs.Default)
		tr = fault.Wrap(tcp, id, inj)
		defer fault.StartNemesis(inj)()
		lg.Infof("fault plan %s armed: %d rules, %d partitions, %d crashes (seed %d)",
			n.FaultPlan, len(plan.Rules), len(plan.Partitions), len(plan.Crashes), plan.Seed)
	}
	defer func() { _ = tr.Close() }()

	prov, err := n.provider()
	if err != nil {
		return fail(1, err)
	}
	view, err := n.View(cl)
	if err != nil {
		return fail(1, err)
	}
	if view != nil {
		view.OnApply(onApply(tcp, n.Topology))
	}
	proc, boot, err := n.Process(cl, prov, view)
	if err != nil {
		return fail(1, err)
	}
	// Armed before the host starts: the checker sees the node's trace
	// from its first step.
	obs.Default.EnableTracing(n.Trace)
	var checker *dist.Checker
	if n.Check {
		checker = n.arm(cl, obs.Default, proc)
	}
	host := runtime.NewHost(id, tr, proc)
	host.Emit(boot)
	host.Start()
	defer func() { _ = host.Close() }()
	if m.shards != nil {
		lg.Infof("shadowdb %s (%s) listening on %s; %d shards, router=%v",
			id, n.Role, tcp.Addr(), m.shards.Shards, m.shards.Routers[0])
	} else {
		lg.Infof("shadowdb %s (%s, module %s) listening on %s; replicas=%v broadcast=%v",
			id, n.Role, n.Module, tcp.Addr(), m.replicas, m.bcast)
	}

	// The flight recorder dumps a postmortem bundle on checker violation,
	// panic, SIGQUIT, or POST /flight/dump. It defaults on whenever the
	// node has a data dir to keep evidence in.
	fdir := n.FlightDir
	if fdir == "" && n.DataDir != "" {
		fdir = filepath.Join(n.DataDir, "flight")
	}
	var rec *obs.Recorder
	if fdir != "" {
		if rec, err = obs.NewRecorder(obs.Default, fdir, id); err != nil {
			return fail(1, err)
		}
		// Every setting: a bundle says what deployment it came from, and
		// `flight merge -check` arms its replay from them (Facts).
		rec.SetConfig(n.Settings())
		if checker != nil {
			rec.SetCheckerStatus(func() any { return checker.Status() })
			checker.OnViolation(func(v dist.Violation) {
				if path, err := rec.TryDump("violation-" + v.Property); err == nil && path != "" {
					lg.Errorf("checker violation %s: postmortem bundle at %s", v.Property, path)
				}
			})
		}
		defer rec.NotifySignals()()
		defer func() {
			if r := recover(); r != nil {
				rec.OnPanic()
				panic(r)
			}
		}()
		lg.Infof("flight recorder armed: bundles under %s", fdir)
	}

	if n.Admin != "" {
		// Routes: DESIGN.md §6; /checker and /spans need -check, /member/*
		// a node under dynamic membership.
		mux := http.NewServeMux()
		if checker != nil {
			mux.Handle("/", dist.HandlerWith(obs.Default, checker, rec))
		} else {
			mux.Handle("/", obs.HandlerWith(obs.Default, rec))
		}
		if view != nil {
			mux.Handle("/member/propose", proposeHandler(host, view))
			mux.Handle("/member/status", statusHandler(view))
		}
		ln, err := net.Listen("tcp", n.Admin)
		if err != nil {
			return fail(1, err)
		}
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		defer func() { _ = srv.Close() }()
		lg.Infof("admin endpoint on http://%s", ln.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	lg.Infof("shutting down")
	return 0
}

// arm runs the online checker over o for the node proc is: armed with the
// node's Facts in cl, and told of a restart when proc recovered durable state,
// since its trace then starts past the slots it recovered. The checker
// reads step events, which the host records only while tracing is on.
func (n Node) arm(cl *Cluster, o *obs.Obs, proc gpm.Process) *dist.Checker {
	ck := dist.NewChecker(n.Facts(cl))
	if r, ok := proc.(interface{ Recovered() bool }); ok && r.Recovered() {
		ck.NoteRestart(msg.Loc(n.ID))
	}
	o.EnableTracing(true)
	ck.Watch(o)
	return ck
}
