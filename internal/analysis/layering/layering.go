// Package layering machine-checks the Fig. 9 module graph: the protocol
// layers compose strictly downward,
//
//	ethernet → arp → ip → {icmp, udp, tcp} → foxnet
//
// so a layer may import layers strictly below it and never a peer or
// anything above. Cross-protocol composition happens only through the
// internal/protocol signatures — the Go rendering of the paper's
// PROTOCOL/IP_AUX functor parameters — so the transports stay functors
// over any Network instead of growing concrete knowledge of IP.
// Infrastructure packages (the substrate every layer may use: sim,
// basis, stats, timers, ...) must stay below the whole stack and import
// no protocol layer at all.
//
// In SML the compiler enforced this shape at functor instantiation; Go's
// import graph accepts any DAG, so this pass encodes the figure.
package layering

import (
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the layering pass.
var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc:  "enforce the Fig. 9 layer DAG: eth→arp→ip→{icmp,udp,tcp}→foxnet, downward imports only",
	Run:  run,
}

// rank orders the protocol layers bottom-up. Packages are classified by
// the last element of their import path; equal ranks may not import each
// other (transports compose through internal/protocol, not each other).
var rank = map[string]int{
	"eth":      1,
	"ethernet": 1,
	"arp":      2,
	"ip":       3,
	"icmp":     4,
	"udp":      4,
	"tcp":      4,
	"foxnet":   5,
}

// infrastructure names the substrate packages that sit below the whole
// stack: any layer may import them, and they may import no layer.
var infrastructure = map[string]bool{
	"basis":     true,
	"checksum":  true,
	"decode":    true,
	"fault":     true,
	"flight":    true,
	"pcap":      true,
	"profile":   true,
	"protocol":  true,
	"seal":      true,
	"seqplot":   true,
	"sim":       true,
	"stats":     true,
	"telemetry": true,
	"timers":    true,
	"wire":      true,
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

func run(pass *analysis.Pass) (any, error) {
	self := lastElem(pass.Pkg.Path())
	selfRank, selfIsLayer := rank[self]
	selfIsInfra := infrastructure[self]
	if !selfIsLayer && !selfIsInfra {
		// Applications above the stack (cmd, examples, experiments,
		// baseline, foxnet subpackages) are unconstrained.
		return nil, nil
	}

	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			impRank, impIsLayer := rank[lastElem(path)]
			if !impIsLayer {
				continue
			}
			switch {
			case selfIsInfra:
				pass.Reportf(imp.Pos(),
					"infrastructure package %q imports protocol layer %q; the substrate sits below the whole Fig. 9 stack",
					self, path)
			case impRank == selfRank && lastElem(path) != self:
				pass.Reportf(imp.Pos(),
					"layer %q imports peer layer %q; cross-protocol composition goes through internal/protocol signatures only",
					self, path)
			case impRank > selfRank:
				pass.Reportf(imp.Pos(),
					"layer %q (rank %d) imports %q (rank %d); the Fig. 9 module graph composes strictly downward (eth→arp→ip→{icmp,udp,tcp}→foxnet)",
					self, selfRank, path, impRank)
			}
		}
	}
	return nil, nil
}
