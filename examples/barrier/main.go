// Barrier: reproduces the Section 3 lower-bound construction. Subdividing a
// constant-degree expander into paths of length log(n)/eps yields a graph
// where (i) no balanced sparse cut exists, (ii) every large subgraph has
// diameter Omega(log² n / eps) — so Lemma 3.1's parameters are tight and the
// improved carving cannot beat O(log² n / eps) diameter. A torus of similar
// size shows how much better benign topologies behave.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"strongdecomp"
)

func main() {
	const (
		nExp    = 32  // expander nodes
		degree  = 4   // expander degree
		pathLen = 10  // subdivision length ~ log(n)/eps
		eps     = 0.5 // boundary parameter
	)
	barrier := strongdecomp.SubdividedExpanderGraph(nExp, degree, pathLen, 7)
	side := 1
	for side*side < barrier.N() {
		side++
	}
	torus := strongdecomp.TorusGraph(side, side)

	// The barrier graph maximizes the improved carving's work, so bound the
	// whole experiment with a deadline: a run that exceeds it returns an
	// error matching strongdecomp.ErrCanceled instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	for _, tc := range []struct {
		name string
		g    *strongdecomp.Graph
	}{
		{"subdivided expander (barrier)", barrier},
		{"torus (benign)", torus},
	} {
		c, err := strongdecomp.BallCarveContext(ctx, tc.g, eps,
			strongdecomp.WithAlgorithmName("chang-ghaffari-improved"))
		if err != nil {
			log.Fatal(err)
		}
		if err := strongdecomp.VerifyCarving(tc.g, c, eps, -1); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: n=%d m=%d\n", tc.name, tc.g.N(), tc.g.M())
		fmt.Printf("  clusters: %d, dead fraction: %.3f\n", c.K, c.DeadFraction(nil))
		fmt.Printf("  max strong diameter (Theorem 3.3 carving): %d\n",
			strongdecomp.MaxStrongDiameter(tc.g, c.Members()))
	}
	fmt.Println()
	fmt.Println("The barrier graph forces cluster diameters at the log^2(n)/eps scale")
	fmt.Println("while the torus of comparable size is carved into much smaller balls,")
	fmt.Println("matching the paper's claim that Lemma 3.1's parameters are best possible.")
}
