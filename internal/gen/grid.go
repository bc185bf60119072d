package gen

import "radiusstep/internal/graph"

// Grid2D returns the nx × ny grid graph with unit weights: vertex (x, y)
// is id y*nx + x, connected to its 4-neighborhood. This reproduces the
// paper's synthetic "2D-grid" workload (they use 1000 × 1000).
func Grid2D(nx, ny int) *graph.CSR {
	if nx < 1 || ny < 1 {
		panic("gen: grid dimensions must be positive")
	}
	b := graph.NewBuilder(nx * ny)
	id := func(x, y int) graph.V { return graph.V(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			if x+1 < nx {
				b.Add(id(x, y), id(x+1, y), 1)
			}
			if y+1 < ny {
				b.Add(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return b.Build()
}

// Grid3D returns the nx × ny × nz grid graph with unit weights and
// 6-neighborhood connectivity, the paper's "3D-grid" workload.
func Grid3D(nx, ny, nz int) *graph.CSR {
	if nx < 1 || ny < 1 || nz < 1 {
		panic("gen: grid dimensions must be positive")
	}
	b := graph.NewBuilder(nx * ny * nz)
	id := func(x, y, z int) graph.V { return graph.V((z*ny+y)*nx + x) }
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if x+1 < nx {
					b.Add(id(x, y, z), id(x+1, y, z), 1)
				}
				if y+1 < ny {
					b.Add(id(x, y, z), id(x, y+1, z), 1)
				}
				if z+1 < nz {
					b.Add(id(x, y, z), id(x, y, z+1), 1)
				}
			}
		}
	}
	return b.Build()
}
