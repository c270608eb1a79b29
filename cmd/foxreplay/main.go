// Command foxreplay audits flight-recorder journals (see internal/flight
// and TCPConfig.Flight): it rebuilds a fresh endpoint from each journal's
// header, re-executes every recorded action through the real
// Receive/Send/Resend/State modules, and compares the reconstructed TCB
// against the recorded delta at every step. A journal that replays
// without divergence is a machine-checked witness that the run was
// deterministic and the recorded state evolution is exactly what the
// protocol code produces; any disagreement — corruption, nondeterminism,
// or a state-machine bug — exits nonzero with the first divergence.
//
// A directory argument stands for the *.fjl journals in it, in name
// order.
//
//	foxreplay run.fjl                 replay and audit one journal
//	foxreplay host1.fjl host2.fjl     audit several (all must pass)
//	foxreplay journals/               audit every journal in a directory
//	foxreplay -verify journals/       check the seal chain first; a
//	                                  tampered journal is refused, with
//	                                  the damaged byte range named
//	foxreplay -workers 8 journals/    shard connections across workers
//	foxreplay -causal 117 run.fjl     print action #117's cause chain and
//	                                  the point events it raised
//	foxreplay -dot run.fjl            emit the causal graph as Graphviz
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/flight"
	"repro/internal/flight/seal"
	"repro/internal/tcp"
)

func main() {
	causal := flag.Uint64("causal", 0, "print the cause chain of this action sequence number and exit")
	dot := flag.Bool("dot", false, "emit the journal's causal graph as Graphviz dot and exit")
	quiet := flag.Bool("q", false, "suppress per-journal summaries; only report divergences")
	verify := flag.Bool("verify", false, "verify the seal chain before replaying; refuse tampered or unsealed journals")
	workers := flag.Int("workers", 1, "shard connections across this many replay workers")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: foxreplay [-verify] [-workers N] [-causal N | -dot] journal.fjl|dir ...")
		os.Exit(2)
	}

	journals, err := expandArgs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "foxreplay:", err)
		os.Exit(1)
	}
	failed := false
	for _, path := range journals {
		if !process(path, *causal, *dot, *quiet, *verify, *workers) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// expandArgs turns the argument list into journal paths: a directory
// stands for its *.fjl files in name order, a file for itself.
func expandArgs(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			out = append(out, arg)
			continue
		}
		paths, err := filepath.Glob(filepath.Join(arg, "*.fjl"))
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s: no *.fjl journals", arg)
		}
		out = append(out, paths...)
	}
	return out, nil
}

// process handles one journal, returning false on any failure.
func process(path string, causal uint64, dot, quiet, verify bool, workers int) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "foxreplay: %v\n", err)
		return false
	}
	if verify {
		rep, err := seal.Verify(bytes.NewReader(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "foxreplay: %s: VERIFY FAILED: %v\n", path, err)
			fmt.Fprintf(os.Stderr, "foxreplay: %s: refusing to replay an unverified journal\n", path)
			return false
		}
		if !quiet {
			fmt.Printf("%s: seal chain verified — %d batches, %d records, head %s\n",
				path, rep.Batches, rep.Records, short(rep.Head))
		}
	}
	recs, err := flight.ReadAll(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintf(os.Stderr, "foxreplay: %s: %v\n", path, err)
		return false
	}

	switch {
	case dot:
		if err := flight.Dot(os.Stdout, recs); err != nil {
			fmt.Fprintf(os.Stderr, "foxreplay: %s: %v\n", path, err)
			return false
		}
		return true
	case causal != 0:
		chain, err := flight.Chain(recs, causal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "foxreplay: %s: %v\n", path, err)
			return false
		}
		for i, r := range chain {
			fmt.Println(strings.Repeat("  ", i) + flight.Describe(r))
		}
		// Then the point events the action raised as it was performed.
		performing := false
		for i := range recs {
			r := &recs[i]
			switch {
			case (r.Kind == flight.KindBeg || r.Kind == flight.KindEnd) && r.EqSeq == causal:
				performing = r.Kind == flight.KindBeg
			case performing && r.Kind == flight.KindEvent:
				fmt.Println(strings.Repeat("  ", len(chain)) + flight.Describe(r))
			}
		}
		return true
	}

	res, err := tcp.ReplayJournalParallel(recs, workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "foxreplay: %s: %v\n", path, err)
		return false
	}
	for _, d := range res.Divergences {
		fmt.Fprintf(os.Stderr, "foxreplay: %s: DIVERGENCE: %v\n", path, d)
	}
	if len(res.Divergences) > 0 {
		return false
	}
	if !quiet {
		par := ""
		if res.Workers > 1 {
			par = fmt.Sprintf(", %d workers", res.Workers)
		}
		fmt.Printf("%s: ok — host %s, %d records, %d actions replayed, %d conns%s, zero divergence\n",
			path, res.Host, res.Records, res.Actions, res.Conns, par)
	}
	return true
}

// short abbreviates a hex hash for summaries.
func short(h string) string {
	if len(h) > 16 {
		return h[:16] + "…"
	}
	if h == "" {
		return "-"
	}
	return h
}
