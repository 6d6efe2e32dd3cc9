// Command zipg-server runs one ZipG cluster server (§4.1): it loads its
// partition (written by cmd/zipg-load), compresses it into shards, binds
// the aggregator endpoint and serves queries, shipping subqueries to its
// peers as needed.
//
// Usage (3-server cluster on one machine):
//
//	zipg-load -dataset orkut -servers 3 -out /tmp/zipg
//	zipg-server -id 0 -data /tmp/zipg/part-0.graph -addr :7070 -peers :7070,:7071,:7072 &
//	zipg-server -id 1 -data /tmp/zipg/part-1.graph -addr :7071 -peers :7070,:7071,:7072 &
//	zipg-server -id 2 -data /tmp/zipg/part-2.graph -addr :7072 -peers :7070,:7071,:7072
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"zipg/internal/cluster"
	"zipg/internal/datafile"
	"zipg/internal/telemetry"
	"zipg/internal/temporal"
)

func main() {
	id := flag.Int("id", 0, "this server's ID")
	data := flag.String("data", "", "partition file from zipg-load")
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	peers := flag.String("peers", "", "comma-separated addresses of all servers, in ID order")
	shards := flag.Int("shards", 4, "shards per server (paper default: one per core)")
	alpha := flag.Int("alpha", 32, "succinct sampling rate")
	groupCommit := flag.Bool("group-commit", true, "batch concurrent appends through the group-commit leader (false: one store lock per record)")
	compactInterval := flag.Duration("compact-interval", 0, "run a full online compaction every interval (0 to disable; enables the background worker)")
	compactRollovers := flag.Int("compact-rollovers", 0, "run a full online compaction after this many log rollovers (0 to disable; enables the background worker)")
	admin := flag.String("admin", "127.0.0.1:0",
		"admin HTTP address serving /metrics, /healthz, /debug/vars, /debug/traces, /debug/trace/{id}, /debug/slow and /debug/pprof (empty to disable)")
	noTelemetry := flag.Bool("no-telemetry", false, "disable telemetry recording (admin endpoints stay up)")
	slowThreshold := flag.Duration("slow-threshold", telemetry.DefaultSlowThreshold,
		"queries at least this slow enter the /debug/slow ring")
	flag.Parse()

	if *data == "" || *peers == "" {
		fmt.Fprintln(os.Stderr, "usage: zipg-server -id N -data part-N.graph -addr HOST:PORT -peers A0,A1,...")
		os.Exit(2)
	}
	g, err := datafile.Read(*data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	peerList := strings.Split(*peers, ",")
	if g.ServerID != *id || g.NumServers != len(peerList) {
		fmt.Fprintf(os.Stderr, "partition file is for server %d of %d; got -id %d with %d peers\n",
			g.ServerID, g.NumServers, *id, len(peerList))
		os.Exit(2)
	}
	nodeSchema, err := g.NodeSchema.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	edgeSchema, err := g.EdgeSchema.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Enable telemetry before the build so build-time series (the
	// parallel pool's build fan-out counters) record the initial
	// compression.
	if !*noTelemetry {
		telemetry.Enable()
	}
	fmt.Printf("server %d: compressing %d nodes, %d edges into %d shards...\n",
		*id, len(g.Nodes), len(g.Edges), *shards)
	srv, err := cluster.NewServer(g.Nodes, g.Edges, nodeSchema, edgeSchema, cluster.ServerConfig{
		ID:                    *id,
		NumServers:            g.NumServers,
		ShardsPerServer:       *shards,
		SamplingRate:          *alpha,
		DisableGroupCommit:    !*groupCommit,
		CompactInterval:       *compactInterval,
		CompactAfterRollovers: *compactRollovers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv.ConnectPeers(peerList)
	fmt.Printf("server %d: serving on %s\n", *id, bound)

	// The change feed streams this partition's events as chunked NDJSON.
	telemetry.RegisterAdminStream("subscribe", temporal.StreamHandler(srv.Temporal()))

	telemetry.SetSlowThreshold(*slowThreshold)
	var adminSrv *telemetry.AdminServer
	if *admin != "" {
		adminSrv, err = telemetry.ServeAdmin(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer adminSrv.Close()
		fmt.Printf("server %d: admin endpoints on http://%s (/metrics /healthz /debug/vars /debug/traces /debug/trace/{id} /debug/slow /debug/regions /debug/pprof /stream/subscribe)\n",
			*id, adminSrv.Addr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("server %d: shutting down\n", *id)
	srv.Close()
}
