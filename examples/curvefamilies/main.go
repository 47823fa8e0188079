// Curvefamilies reproduces Figure 4 of the paper: families of PALU(d)
// degree distributions (Eq. (5)) for varying r, overlaid on their base
// modified Zipf–Mandelbrot distributions, rendered as ASCII log-log plots.
package main

import (
	"fmt"
	"log"

	"hybridplaw"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/plotio"
)

func main() {
	log.SetFlags(0)
	panels := []struct {
		alpha, delta float64
		rs           []float64
	}{
		{1.1, -0.5, []float64{1.01, 1.1, 1.2, 1.4, 1.8, 2, 3, 5}},
		{1.5, -0.6, []float64{1.01, 1.1, 1.2, 1.5, 2, 4, 11}},
		{2.0, -0.75, []float64{1.05, 1.2, 1.8, 3, 6, 12, 35}},
		{2.5, -0.75, []float64{1.01, 1.05, 1.2, 1.8, 5, 20, 70}},
		{2.9, -0.8, []float64{1.01, 1.05, 1.2, 1.8, 5, 30, 200}},
	}
	const dmax = 1 << 16 // 65536 degrees renders quickly; the paper uses 1e6

	for _, panel := range panels {
		zm := hybridplaw.ZipfMandelbrot{Alpha: panel.alpha, Delta: panel.delta}
		zmD, err := zm.PooledD(dmax)
		if err != nil {
			log.Fatal(err)
		}
		series := []plotio.Series{plotio.PooledSeries("ZM", zmD, 'z')}
		// Render the extreme family members; intermediate r interpolate.
		rs := []float64{panel.rs[0], panel.rs[len(panel.rs)-1]}
		family, err := palu.PooledFamily(panel.alpha, panel.delta, rs, dmax)
		if err != nil {
			log.Fatal(err)
		}
		for i, pd := range family {
			marker := '.'
			if i == len(rs)-1 {
				marker = '+'
			}
			series = append(series, plotio.PooledSeries(
				fmt.Sprintf("PALU r=%g", rs[i]), pd, marker))
		}
		chart, err := plotio.LogLogPlot(series, 72, 16)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Example: alpha = %g; delta = %g; r = %v\n", panel.alpha, panel.delta, panel.rs)
		fmt.Println(chart)
	}
}
