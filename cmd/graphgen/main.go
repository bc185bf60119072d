// Command graphgen emits generated graphs for feeding cmd/sssp,
// cmd/graphpack, or external tools. Output formats: the native text
// format (default), DIMACS ".gr", or a headerless edge list. For a
// binary file, pack the graph with cmd/graphpack (-raw for a
// graph-only snapshot).
//
// Examples:
//
//	graphgen -kind road -n 100000 -weights 10000 -o road.txt
//	graphgen -kind road -n 100000 -format dimacs -o road.gr
package main

import (
	"flag"
	"fmt"
	"os"

	rs "radiusstep"
)

func main() {
	kind := flag.String("kind", "grid2d", "grid2d|grid3d|road|web|er|rmat|smallworld|comb")
	n := flag.Int("n", 10000, "approximate vertex count")
	m := flag.Int("m", 0, "edge count (er only; default 4n)")
	weights := flag.Int("weights", 0, "uniform integer weights in [1, W] (0 = unit/native)")
	seed := flag.Uint64("seed", 42, "generator seed")
	out := flag.String("o", "-", "output file (- for stdout)")
	format := flag.String("format", "text", "output format: text|dimacs|edgelist")
	connected := flag.Bool("connected", true, "keep only the largest component")
	flag.Parse()
	// Validate before generating so a typo fails in microseconds, not
	// after minutes of generation (and never truncates the output file).
	switch *format {
	case "text", "dimacs", "edgelist":
	default:
		fmt.Fprintf(os.Stderr, "unknown -format %q (want text|dimacs|edgelist)\n", *format)
		os.Exit(2)
	}

	var g *rs.Graph
	if *kind == "er" && *m > 0 {
		g = rs.ErdosRenyi(*n, *m, *seed)
	} else {
		var err error
		g, err = rs.GenerateByName(*kind, *n, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *connected {
		g, _ = rs.LargestComponent(g)
	}
	if *weights > 0 {
		g = rs.WithUniformIntWeights(g, 1, *weights, *seed+1)
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
	var err error
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
	fmt.Fprintf(os.Stderr, "wrote %s: n=%d m=%d format=%s\n", *kind, g.NumVertices(), g.NumEdges(), *format)
}
