// Command ecod runs one node of the real-process ecoCloud deployment: the
// protocol day executed by separate operating-system processes that talk
// over TCP (internal/node). Every process is started from the same cluster
// config file. Node 0 runs the day and calls the other nodes for the
// servers they own; it writes the merged cluster figure, which equals the
// netsim protocol day of the same config, and every node writes a summary
// of its own span.
//
//	ecod -config cluster.conf -node 0 -out out/ &
//	ecod -config cluster.conf -node 1 -out out/ &
//	ecod -config cluster.conf -node 2 -out out/
//
// There is no coordinator: nodes agree they belong to the same run iff
// their configs hash identically and carry the same seed, checked in the
// transport handshake. The config's drop and dup keys make the virtual
// fabric lossy, dropping and duplicating protocol messages in virtual time
// (netsim.Impairments semantics); like every key they participate in the
// config hash.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/node"
)

func main() {
	var (
		configPath = flag.String("config", "", "cluster config file (required; see internal/node.ParseConfig)")
		self       = flag.Int("node", -1, "this process's node ID (required)")
		outDir     = flag.String("out", "out", "directory for summary CSVs")
		timeout    = flag.Duration("connect-timeout", node.DefaultConnectTimeout, "how long node 0 waits for each serving node to accept its link, and a serving node for node 0 to dial")
	)
	flag.Parse()
	if *configPath == "" || *self < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := node.LoadConfig(*configPath)
	if err != nil {
		fatal(err)
	}
	n, err := node.New(cfg, *self, node.Options{ConnectTimeout: *timeout})
	if err != nil {
		fatal(err)
	}
	merged, err := n.Run(*outDir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ecod node %d done; summary in %s\n", *self, *outDir)
	if merged != nil {
		if err := merged.WriteMarkdown(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ecod:", err)
	os.Exit(1)
}
