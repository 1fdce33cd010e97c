// Command teaworker is one member of a teasim fabric pool: it reads shard
// frames from stdin, simulates each cell, writes completed cells to its
// result store (-journal, a tea/store directory) before reporting them, and
// streams heartbeats so the coordinator can tell a slow worker from a wedged
// one. It is spawned by the fabric coordinator (`teaexp -fabric N`,
// `teasrvd -fabric N`), not run by hand.
//
// The faultinject chaos harness is compiled in and armed from TEASIM_FAULTS
// (see internal/faultinject), so robustness tests can SIGKILL a real worker
// mid-shard or tear a real line of its store.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"teasim/internal/faultinject"
	"teasim/tea/fabric"
)

func main() {
	journal := flag.String("journal", "", "result store directory that receives completed cells before they are reported")
	hb := flag.Duration("hb", 200*time.Millisecond, "heartbeat frame interval")
	flag.Parse()

	err := fabric.RunWorker(fabric.WorkerOptions{
		In:         os.Stdin,
		Out:        os.Stdout,
		Log:        os.Stderr,
		Journal:    *journal,
		HBInterval: *hb,
		Faults:     faultinject.FromEnv(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "teaworker:", err)
		os.Exit(1)
	}
}
