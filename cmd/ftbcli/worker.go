package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"

	"ftb"
	"ftb/internal/cluster"
	"ftb/internal/kernels"
	"ftb/internal/trace"
)

// cmdWorker serves fault-injection leases for one kernel over HTTP: the
// worker half of a sharded campaign (`ftbcli exhaustive -cluster ...` or
// -selfhost is the coordinator half). The process prints
// "ftb-worker-listening <addr>" on stdout once serving, so spawners can
// bind it to an ephemeral port (-addr 127.0.0.1:0) and scrape the
// address; it runs until killed or interrupted.
func cmdWorker(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	kernel, size := kernelFlags(fs)
	addr := fs.String("addr", "127.0.0.1:0", "listen address (port 0 picks an ephemeral port)")
	procs := fs.Int("procs", 0, "engine parallelism per lease (default GOMAXPROCS)")
	serve := serveFlag(fs)
	verbose := verboseFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate the kernel before binding anything.
	if _, err := kernels.New(*kernel, *size); err != nil {
		return err
	}
	cfg := cluster.WorkerConfig{
		Factory: func() trace.Program {
			k, err := kernels.New(*kernel, *size)
			if err != nil {
				panic(err) // validated above
			}
			return k
		},
		Procs:  *procs,
		Logger: setupLogger(*verbose),
	}
	if k, err := kernels.New(*kernel, *size); err == nil {
		cfg.Width = k.Width()
	}
	var obs *obsServer
	if *serve != "" {
		col := ftb.NewCollector()
		srv, err := startServer(ctx, *serve, col, nil)
		if err != nil {
			return err
		}
		obs = srv
		srv.setBuildInfo(map[string]string{"program": *kernel})
		cfg.Collector = col
		cfg.Observer = srv
		fmt.Fprintf(os.Stderr, "ftbcli: worker observability on http://%s (/metrics /progress /debug/pprof)\n", srv.addr())
		defer obs.shutdown()
	}
	w, err := cluster.NewWorker(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	info := w.Info()
	fmt.Fprintf(os.Stderr, "ftbcli: worker serving %s/%s (%d sites, width %d, procs %d) on %s\n",
		*kernel, *size, info.Sites, info.Width, info.Procs, ln.Addr())
	err = w.Serve(ctx, ln, os.Stdout)
	if errors.Is(err, context.Canceled) {
		return nil // clean Ctrl-C / SIGTERM shutdown
	}
	return err
}
