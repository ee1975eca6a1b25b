// Command chainlogd serves a chainlog database over HTTP/JSON: a
// long-lived daemon that loads a Datalog program at startup, serves
// every query shape from the plan the DB's plan cache compiled for it
// once, and exposes query, mutation, explain, health and metrics
// endpoints.
//
// Usage:
//
//	chainlogd -program prog.dl [-facts facts.dl|facts.snap] [-addr :8080] \
//	          [-max-inflight 64] [-default-timeout 5s] [-max-timeout 30s] \
//	          [-max-nodes 4194304] [-drain-timeout 15s] \
//	          [-wal-dir DIR] [-fsync always|rotate] [-segment-bytes N] \
//	          [-snapshot-bytes N] [-role primary|replica] [-primary URL] \
//	          [-watch-linger 1m]
//
// -facts accepts either Datalog fact text or a columnar binary
// snapshot (detected by magic); a binary snapshot is memory-mapped, so
// a 100M-edge store is serving queries milliseconds after boot. The
// WAL's automatic snapshots and the replication bootstrap stream are
// always that binary form; text is for humans (-facts, DumpFacts).
//
// Endpoints:
//
//	POST /v1/query    {"template": "tc(?, Y)", "args": ["a"]} — or
//	                  {"batch": [["a"],["b"]]} for batched bindings, or
//	                  {"query": "tc(a, Y)"} for one-shot literals
//	POST /v1/assert   {"facts": [{"pred": "e", "args": ["a","b"]}]}
//	POST /v1/retract  {"facts": [{"pred": "e", "args": ["a","b"]}]}
//	POST /v1/delta    {"ops": [{"op":"assert","pred":"e","args":["a","b"]},
//	                           {"op":"retract","pred":"e","args":["b","c"]}]}
//	GET  /v1/explain?query=tc(a,%20Y)
//	GET  /v1/status   role, epochs, WAL and replication state (JSON)
//	GET  /v1/snapshot binary fact snapshot + X-Chainlog-Epoch
//	GET  /v1/replicate?from=E  NDJSON delta feed for replicas
//	GET  /v1/watch?template=tc(%3F,%20Y)&arg=a[&from=E&gen=G]
//	                  NDJSON live view of a prepared query: a reset line
//	                  with the full answer set, then epoch-stamped
//	                  added/removed deltas as facts mutate; heartbeats
//	                  carry the (from, gen) resume cursor. Served on any
//	                  role — replicas stream off their applied WAL tail.
//	POST /v1/promote  replica -> primary (manual failover)
//	GET  /healthz     200 ok / 503 draining or wal failed
//	GET  /metrics     Prometheus text exposition
//
// With -wal-dir the daemon is durable: every mutation is appended to a
// segmented, CRC-framed write-ahead log and synced before it is applied,
// so no reader sees an undurable write. Snapshots truncate the log, and
// boot recovers the fact store from the newest snapshot plus the log tail
// (tolerating a torn final record from a crash). With -role replica
// -primary URL the daemon rejects writes with 403 + an X-Chainlog-Primary
// redirect and keeps itself converged by tailing the primary's feed.
//
// On SIGTERM or SIGINT the daemon stops accepting connections, flips
// /healthz to 503, waits up to -drain-timeout for in-flight requests,
// and exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chainlog"
	"chainlog/internal/server"
	"chainlog/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "chainlogd:", err)
		os.Exit(1)
	}
}

// run is main behind a fresh FlagSet, so tests can drive full
// boot/serve/drain cycles in-process.
func run(args []string) error {
	fs := flag.NewFlagSet("chainlogd", flag.ContinueOnError)
	programPath := fs.String("program", "", "path to the Datalog program (rules and facts); required")
	factsPath := fs.String("facts", "", "optional path to an additional facts file")
	addr := fs.String("addr", ":8080", "listen address")
	maxInFlight := fs.Int("max-inflight", 64, "bound on concurrently executing requests (excess gets 429)")
	defaultTimeout := fs.Duration("default-timeout", 5*time.Second, "evaluation deadline for requests that name none")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "upper clamp on request-supplied timeout_ms")
	maxNodes := fs.Int("max-nodes", 4<<20, "admission cap on a query's interpretation-graph nodes (-1 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight requests")
	walDir := fs.String("wal-dir", "", "write-ahead-log directory; empty disables durability and replication")
	fsyncPolicy := fs.String("fsync", "always", "WAL fsync policy: \"always\" (per append) or \"rotate\" (segment boundaries only)")
	segmentBytes := fs.Int64("segment-bytes", 64<<20, "WAL segment rotation threshold")
	snapshotBytes := fs.Int64("snapshot-bytes", 8<<20, "WAL bytes between automatic snapshots (negative disables)")
	role := fs.String("role", "primary", "\"primary\" (accepts writes) or \"replica\" (tails -primary, read-only)")
	primaryURL := fs.String("primary", "", "primary base URL (required with -role replica)")
	watchLinger := fs.Duration("watch-linger", time.Minute, "how long a watched view outlives its last subscriber (negative closes immediately)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *programPath == "" {
		return fmt.Errorf("-program is required")
	}
	// A binary -facts file (from `chainlog ingest` or a snapshot) boots
	// through the zero-copy mmap path: the daemon serves its first query
	// without parsing or index building. Text facts load as before.
	db, mapped, err := chainlog.OpenFiles(*programPath, *factsPath)
	if err != nil {
		return err
	}
	defer db.Close()
	if mapped {
		log.Printf("chainlogd: mapped binary snapshot %s (epoch %d)", *factsPath, db.FactEpoch())
	}
	log.Printf("chainlogd: loaded %s (classification %+v)", *programPath, db.Classify())

	var walLog *wal.Log
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		walLog, err = wal.Open(wal.Options{Dir: *walDir, SegmentBytes: *segmentBytes, Sync: policy})
		if err != nil {
			return fmt.Errorf("opening WAL %s: %w", *walDir, err)
		}
		defer walLog.Close()
		snap, at, replayed, err := db.RecoverWAL(walLog)
		if err != nil {
			return fmt.Errorf("recovering WAL %s: %w", *walDir, err)
		}
		if snap != "" {
			log.Printf("chainlogd: restored snapshot %s (epoch %d)", snap, at)
		}
		if replayed > 0 || walLog.LastEpoch() > 0 {
			log.Printf("chainlogd: WAL replayed %d record(s); fact epoch %d", replayed, db.FactEpoch())
		}
	}

	s, err := server.New(server.Config{
		DB:             db,
		MaxInFlight:    *maxInFlight,
		DefaultTimeout: *defaultTimeout,
		MaxTimeout:     *maxTimeout,
		MaxNodes:       *maxNodes,
		WAL:            walLog,
		Role:           *role,
		PrimaryURL:     *primaryURL,
		SnapshotBytes:  *snapshotBytes,
		WatchLinger:    *watchLinger,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	return s.ListenAndServe(ctx, *addr, *drainTimeout)
}
