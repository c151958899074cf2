package ftb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ftb/internal/campaign"
	"ftb/internal/cluster"
)

// ClusterOptions configures multi-process sharded campaign execution:
// the campaign's (site × bit) space is leased in contiguous shards to
// worker processes speaking the ftb worker HTTP protocol (`ftbcli
// worker`, or any server built on the same package). Workers are
// crash-isolated — a killed worker costs the campaign only its in-flight
// shard — and the merged ground truth is byte-identical to an in-process
// run.
type ClusterOptions struct {
	// Workers is the pool of worker base URLs
	// (e.g. "http://10.0.0.2:9001").
	Workers []string
	// SelfHost forks this many local worker processes (in addition to
	// Workers) using SelfHostCommand, and kills them when the campaign
	// ends.
	SelfHost int
	// SelfHostCommand is the argv of a self-hosted worker process. It
	// must serve the same program as the analysis and print the worker
	// listening marker on stdout (as `ftbcli worker -addr
	// 127.0.0.1:0` does). Required when SelfHost > 0.
	SelfHostCommand []string
	// SpawnLog receives the stdout/stderr of self-hosted workers
	// (nil discards).
	SpawnLog io.Writer
	// ShardSize is the lease granularity in experiments (default
	// cluster.DefaultShardSize).
	ShardSize int
	// LeaseTimeout bounds one shard round trip; a worker that cannot
	// finish inside it is treated as lost and the shard is re-queued
	// (default cluster.DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// MaxWorkerFailures drops a worker from the pool after this many
	// consecutive failures (default cluster.DefaultMaxWorkerFailures).
	MaxWorkerFailures int
	// MaxLeaseAttempts fails the campaign when a single shard has failed
	// this many times across all workers (default
	// cluster.DefaultMaxLeaseAttempts).
	MaxLeaseAttempts int
	// Backoff is the initial per-worker retry delay, doubling per
	// consecutive failure (default cluster.DefaultBackoff).
	Backoff time.Duration
	// OnWorkers, when non-nil, is invoked once with the full worker URL
	// pool (configured plus self-hosted) after self-hosted workers have
	// spawned, before any lease is issued. It is how a live fleet view
	// (e.g. the ftbcli -serve /v1/fleet endpoint) learns which workers
	// to poll mid-campaign.
	OnWorkers func(urls []string)
}

// WithCluster runs the call's campaign sharded across worker processes
// instead of in-process goroutines. Only exhaustive campaigns
// (Exhaustive, ExhaustiveCheckpointed) support cluster execution; other
// campaign-running methods return an error rather than silently running
// in-process. WithPropTrace cannot be combined with WithCluster
// (trajectories would stay on the workers).
//
// Determinism holds across modes: the merged ground truth is
// byte-identical to the in-process campaign's, regardless of worker
// count, shard size, retries, or worker loss.
func WithCluster(o ClusterOptions) RunOption {
	return func(rc *runConfig) { rc.cluster = &o }
}

func errClusterUnsupported(method string) error {
	return fmt.Errorf("ftb: %s does not support WithCluster; only Exhaustive and ExhaustiveCheckpointed shard across workers", method)
}

func errFaultModelUnsupported(method string) error {
	return fmt.Errorf("ftb: %s does not support a non-default WithFaultModel; boundary inference is defined over the single-bit-flip space", method)
}

// clusterExhaustive runs the exhaustive campaign through the cluster
// coordinator. completed lists experiment ranges already classified in
// prior that the coordinator must not re-lease (the store resume path),
// and onShard, when non-nil, receives every merged lease (the
// durable-merge hook).
func (a *Analysis) clusterExhaustive(rc runConfig, prior *GroundTruth, completed []campaign.Range, onShard func(lo, hi int, kinds []Outcome) error) (*GroundTruth, error) {
	co := rc.cluster
	if rc.traceSink != nil {
		return nil, errors.New("ftb: WithPropTrace cannot be combined with WithCluster")
	}
	if rc.replayOff {
		return nil, errors.New("ftb: WithoutReplay cannot be combined with WithCluster; cluster workers always replay")
	}
	urls := append([]string(nil), co.Workers...)
	if co.SelfHost > 0 {
		if len(co.SelfHostCommand) == 0 {
			return nil, errors.New("ftb: ClusterOptions.SelfHost requires SelfHostCommand (a worker argv such as {\"ftbcli\", \"worker\", \"-kernel\", \"cg\", \"-addr\", \"127.0.0.1:0\"})")
		}
		ctx := rc.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		procs, err := cluster.SpawnWorkers(ctx, co.SelfHostCommand, co.SelfHost, co.SpawnLog, 0)
		if err != nil {
			return nil, err
		}
		defer cluster.KillAll(procs)
		urls = append(urls, cluster.URLs(procs)...)
	}
	if co.OnWorkers != nil {
		co.OnWorkers(append([]string(nil), urls...))
	}
	res, err := cluster.Exhaustive(cluster.Config{
		Campaign:          a.configFrom(rc),
		Workers:           urls,
		Program:           a.name,
		ShardSize:         co.ShardSize,
		LeaseTimeout:      co.LeaseTimeout,
		MaxWorkerFailures: co.MaxWorkerFailures,
		MaxLeaseAttempts:  co.MaxLeaseAttempts,
		Backoff:           co.Backoff,
		Prior:             prior,
		Completed:         completed,
		OnShard:           onShard,
	})
	if err != nil {
		return nil, err
	}
	return res.GT, nil
}
