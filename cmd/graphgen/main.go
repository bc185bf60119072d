// Command graphgen emits generated graphs for feeding cmd/sssp,
// cmd/graphpack, or external tools. Output formats: the native text
// format (default), DIMACS ".gr", or a headerless edge list. For a
// binary file, pack the graph with cmd/graphpack (-raw for a
// graph-only snapshot). The -graph flag names the graph in the spec
// grammar of the other tools (radiusstep.ParseGraphSpec), restricted to
// gen=FAMILY and its n, seed and weights.
//
// Examples:
//
//	graphgen -graph gen=road,n=100000,weights=10000 -o road.txt
//	graphgen -graph gen=road,n=100000 -format dimacs -o road.gr
package main

import (
	"flag"
	"fmt"
	"os"

	rs "radiusstep"
)

func main() {
	graphSpec := flag.String("graph", "", "graph spec: gen=FAMILY[,n=N][,seed=S][,weights=W]; FAMILY is grid2d|grid3d|road|web|er|rmat|smallworld|comb")
	out := flag.String("o", "-", "output file (- for stdout)")
	format := flag.String("format", "text", "output format: text|dimacs|edgelist")
	flag.Parse()
	// Validate before generating so a typo fails in microseconds, not
	// after minutes of generation (and never truncates the output file).
	switch *format {
	case "text", "dimacs", "edgelist":
	default:
		fmt.Fprintf(os.Stderr, "unknown -format %q (want text|dimacs|edgelist)\n", *format)
		os.Exit(2)
	}
	spec, err := rs.ParseGraphSpec(*graphSpec, "gen", "n", "seed", "weights")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	g, _, err := spec.Load()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "text":
		err = rs.WriteGraph(w, g)
	case "dimacs":
		err = rs.WriteDIMACS(w, g)
	case "edgelist":
		err = rs.WriteEdgeList(w, g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: n=%d m=%d format=%s\n", spec.Gen, g.NumVertices(), g.NumEdges(), *format)
}
