// Command chainlogctl operates a replicated chainlogd cluster.
//
//	chainlogctl status -nodes http://p:8080,http://r1:8081,http://r2:8082
//	    One row per node: role, fact epoch, replication lag, WAL state,
//	    drain flag. Exit 1 if any node is unreachable.
//
//	chainlogctl bootstrap -from http://primary:8080 -wal-dir /var/lib/chainlog
//	    Pull the primary's binary fact snapshot and install it into a
//	    local WAL directory, so a chainlogd booted on that directory
//	    starts at the snapshot's epoch and tails only the difference.
//
//	chainlogctl promote -node http://replica:8081
//	    Flip a replica into a primary (manual failover). Make sure the
//	    old primary has stopped accepting writes first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"chainlog/internal/server"
	"chainlog/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main behind explicit streams and an exit code, so tests drive
// whole invocations in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "chainlogctl: usage: chainlogctl <status|bootstrap|promote> [flags]")
		return 2
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var err error
	switch cmd := args[0]; cmd {
	case "status":
		err = runStatus(args[1:], client, stdout, stderr)
	case "bootstrap":
		err = runBootstrap(args[1:], client, stdout, stderr)
	case "promote":
		err = runPromote(args[1:], client, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "chainlogctl: unknown command %q (want status, bootstrap or promote)\n", cmd)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "chainlogctl:", err)
		return 1
	}
	return 0
}

func runStatus(args []string, client *http.Client, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chainlogctl status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.String("nodes", "", "comma-separated node base URLs; required")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes == "" {
		return fmt.Errorf("status: -nodes is required")
	}
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tROLE\tFACT-EPOCH\tLAG\tWAL-LAST\tSNAPSHOT\tSEGMENTS\tDRAINING")
	var firstErr error
	for _, node := range strings.Split(*nodes, ",") {
		node = strings.TrimRight(strings.TrimSpace(node), "/")
		st, err := nodeStatus(client, node)
		if err != nil {
			fmt.Fprintf(tw, "%s\tunreachable\t-\t-\t-\t-\t-\t-\n", node)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", node, err)
			}
			continue
		}
		lag := "-"
		if st.Replication != nil {
			lag = strconv.FormatUint(st.Replication.Lag, 10)
			if !st.Replication.Connected {
				lag += " (disconnected)"
			}
		}
		walLast, snap, segs := "-", "-", "-"
		if st.WAL != nil {
			walLast = strconv.FormatUint(st.WAL.LastEpoch, 10)
			snap = strconv.FormatUint(st.WAL.SnapshotEpoch, 10)
			segs = strconv.Itoa(st.WAL.Segments)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\t%s\t%v\n",
			node, st.Role, st.FactEpoch, lag, walLast, snap, segs, st.Draining)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return firstErr
}

func nodeStatus(client *http.Client, node string) (*server.StatusResponse, error) {
	resp, err := client.Get(node + "/v1/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var st server.StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func runBootstrap(args []string, client *http.Client, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chainlogctl bootstrap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	from := fs.String("from", "", "base URL of the node to snapshot (normally the primary); required")
	walDir := fs.String("wal-dir", "", "local WAL directory to install the snapshot into; required")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *from == "" || *walDir == "" {
		return fmt.Errorf("bootstrap: -from and -wal-dir are required")
	}
	// ?format=binary is redundant against a current node; one release
	// older streams text unless told, and text is refused below.
	resp, err := client.Get(strings.TrimRight(*from, "/") + "/v1/snapshot?format=binary")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot from %s: HTTP %d", *from, resp.StatusCode)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get("X-Chainlog-Epoch"), 10, 64)
	if err != nil {
		return fmt.Errorf("snapshot from %s: malformed X-Chainlog-Epoch: %v", *from, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/octet-stream") {
		return fmt.Errorf("snapshot from %s: Content-Type %q is not a binary snapshot", *from, ct)
	}
	l, err := wal.Open(wal.Options{Dir: *walDir})
	if err != nil {
		return err
	}
	defer l.Close()
	if last := l.LastEpoch(); last >= epoch {
		return fmt.Errorf("bootstrap: %s is already at epoch %d (snapshot is %d); refusing to rewind", *walDir, last, epoch)
	}
	if _, err := l.WriteSnapshot(func(w io.Writer) (uint64, error) {
		_, cerr := io.Copy(w, resp.Body)
		return epoch, cerr
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "bootstrap: installed snapshot at epoch %d into %s\n", epoch, *walDir)
	return nil
}

func runPromote(args []string, client *http.Client, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("chainlogctl promote", flag.ContinueOnError)
	fs.SetOutput(stderr)
	node := fs.String("node", "", "base URL of the replica to promote; required")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" {
		return fmt.Errorf("promote: -node is required")
	}
	resp, err := client.Post(strings.TrimRight(*node, "/")+"/v1/promote", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("promote %s: HTTP %d: %s", *node, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var pr server.PromoteResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return err
	}
	if pr.Promoted {
		fmt.Fprintf(stdout, "promote: %s is now primary at epoch %d\n", *node, pr.FactEpoch)
	} else {
		fmt.Fprintf(stdout, "promote: %s was already primary (epoch %d)\n", *node, pr.FactEpoch)
	}
	return nil
}
