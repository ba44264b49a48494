// Command shadowdb-client submits transactions to a running ShadowDB
// deployment over TCP and prints the results. It reads the topology
// file the servers were started with:
//
//	shadowdb-client -topology cluster.json -mode pbr -tx deposit -args 1,10 -n 100
//	shadowdb-client -topology cluster.json -mode smr -tx balance -args 1
//	shadowdb-client -topology cluster.json -mode shard -tx transfer -args 1,2,50
//	shadowdb-client -topology cluster.json -mode smr -read lease -tx balance -args 1
//	shadowdb-client -topology cluster.json -mode smr -read follower -read-target r3 -tx balance -args 1
//
// With -read the request bypasses the consensus path: -read-target
// serves it locally while it can prove the mode's guarantee (a valid
// leader lease, or the follower staleness bound), and a rejected read
// is retried against the same target.
//
// PBR replicas answer over the client's own connection. SMR answers
// come from the replicas and shard answers from the owning shard or the
// router (rt1), which dial the client back: in those modes the client's
// id must be listed in the topology the servers read, and the client
// listens on that entry's address.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"shadowdb/internal/core"
	"shadowdb/internal/deploy"
	"shadowdb/internal/msg"
	"shadowdb/internal/obs"
)

// lg carries the client's status lines: they stream to stderr through
// the structured logger, keeping stdout pure transaction results
// (pipeable into diff/awk in the smoke scripts).
var lg = obs.L("client")

func main() {
	c := deploy.DefaultClient()
	c.RegisterFlags(flag.CommandLine)
	flag.Parse()
	os.Exit(run(c))
}

func run(c deploy.Client) int {
	lv, err := obs.ParseLevel(c.LogLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	obs.Default.SetLogLevel(lv)
	obs.Default.SetLogStream(os.Stderr)
	obs.Default.SetNode(msg.Loc(c.ID))

	s, err := c.Open()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() { _ = s.Close() }()
	args := parseArgs(c.Args)

	start := time.Now()
	for i := 0; i < c.N; i++ {
		if c.Read != "" {
			res, err := s.Read(c.Tx, args)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			printRows(res.Cols, res.Vals)
			core.ReleaseReadResult(res)
			continue
		}
		res, err := s.Exec(c.Tx, args)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		printResult(res)
	}
	elapsed := time.Since(start)
	if c.Read != "" {
		lg.Infof("%d local reads in %v (%.0f reads/s, %d rejections)",
			c.N, elapsed.Round(time.Millisecond), float64(c.N)/elapsed.Seconds(), s.ReadsRejected)
	} else {
		lg.Infof("%d transactions in %v (%.0f tx/s, %d retries)",
			c.N, elapsed.Round(time.Millisecond), float64(c.N)/elapsed.Seconds(), s.Retries)
	}
	return 0
}

func printResult(res core.TxResult) {
	switch {
	case res.Err != "":
		fmt.Printf("error: %s\n", res.Err)
	case res.Aborted:
		fmt.Println("aborted")
	case len(res.Rows) > 0:
		printRows(res.Cols, res.Rows...)
	default:
		fmt.Println("ok")
	}
}

// printRows prints a tab-separated header (when there is one) and rows.
func printRows(cols []string, rows ...[]any) {
	if len(cols) > 0 {
		fmt.Println(strings.Join(cols, "\t"))
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = fmt.Sprint(v)
		}
		fmt.Println(strings.Join(cells, "\t"))
	}
}

// parseArgs converts "1,2.5,abc" to typed values.
func parseArgs(s string) []any {
	if s == "" {
		return nil
	}
	var out []any
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if v, err := strconv.ParseInt(part, 10, 64); err == nil {
			out = append(out, v)
			continue
		}
		if v, err := strconv.ParseFloat(part, 64); err == nil {
			out = append(out, v)
			continue
		}
		out = append(out, part)
	}
	return out
}
