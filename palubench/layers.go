package main

// The traced suite: the paper suite rebuilt from experiments.Scenarios
// with the scenarios that carry most of its work (the Fig. 3 panels with
// their model-selection tables, and the Fig. 4 curve families) composed
// here from public calls into each layer, so that every call can be
// timed from outside. Every other scenario runs unchanged inside one
// span. The artifacts these compositions write must be byte-identical to
// the untraced run's.

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"hybridplaw/internal/experiments"
	"hybridplaw/internal/hist"
	"hybridplaw/internal/model"
	"hybridplaw/internal/netgen"
	"hybridplaw/internal/palu"
	"hybridplaw/internal/plotio"
	"hybridplaw/internal/scenario"
	"hybridplaw/internal/stream"
	"hybridplaw/internal/zipfmand"
)

// figure4DMax is the paper's Fig. 4 degree range, 2^20 in binary pooling.
const figure4DMax = 1 << 20

// selectionBook collects the traced model selections: the fitter
// ranking per Fig. 3 panel and the number of failed fits.
type selectionBook struct {
	mu       sync.Mutex
	orders   map[string][]string
	failures int
}

// doneResult is the Result of a traced scenario; the traced run writes
// no summary.
type doneResult struct{}

func (doneResult) Summary() string { return "" }

// tracedRegistry returns the traced suite. Each scenario runs inside a
// "scenario.run" span under root.
func tracedRegistry(seed uint64, tr *tracer, root int) (*scenario.Registry, *selectionBook, error) {
	book := &selectionBook{orders: map[string][]string{}}
	panels := map[string]netgen.PanelSpec{}
	for _, p := range netgen.Figure3Panels() {
		panels[p.ID] = p
	}
	fig4 := map[string]experiments.Figure4Panel{}
	for _, p := range experiments.Figure4Spec() {
		fig4[fmt.Sprintf("fig4/alpha%.1f", p.Alpha)] = p
	}
	reg := scenario.NewRegistry()
	for _, s := range experiments.Scenarios(seed) {
		var run func(c *scenario.Context, parent int) error
		if spec, ok := panels[strings.TrimPrefix(s.Name, "fig3/")]; ok {
			run = func(c *scenario.Context, parent int) error { return tracedPanel(c, tr, parent, spec, book) }
		} else if _, ok := panels[strings.TrimPrefix(s.Name, "modelsel/")]; ok {
			continue // folded into the panel's traced run, which streams the window once for both
		} else if panel, ok := fig4[s.Name]; ok {
			run = func(c *scenario.Context, parent int) error { return tracedFigure4(c, tr, parent, panel) }
		} else {
			opaque := s.Run
			run = func(c *scenario.Context, _ int) error {
				_, err := opaque(c)
				return err
			}
		}
		s.Run = func(c *scenario.Context) (scenario.Result, error) {
			id := tr.start("scenario.run", root)
			defer tr.stop(id)
			if err := run(c, id); err != nil {
				return nil, err
			}
			return doneResult{}, nil
		}
		if err := reg.Register(s); err != nil {
			return nil, nil, err
		}
	}
	return reg, book, nil
}

// tracedSink delivers windows to sink inside "stream.sink" spans.
func tracedSink(tr *tracer, parent int, sink stream.Sink) stream.Sink {
	return stream.FuncSink(func(res *stream.WindowResult) error {
		id := tr.start("stream.sink", parent)
		defer tr.stop(id)
		return sink.ConsumeWindow(res)
	})
}

// writeArtifact renders one artifact through plotio inside a
// "plotio.write" span.
func writeArtifact(c *scenario.Context, tr *tracer, parent int, name string, render func(io.Writer) error) error {
	id := tr.start("plotio.write", parent)
	defer tr.stop(id)
	return c.WriteArtifact(name, render)
}

// writeChart renders a log-log chart artifact inside a "plotio.write"
// span.
func writeChart(c *scenario.Context, tr *tracer, parent int, name string, series []plotio.Series) error {
	id := tr.start("plotio.write", parent)
	defer tr.stop(id)
	chart, err := plotio.LogLogPlot(series, 72, 18)
	if err != nil {
		return err
	}
	return c.WriteArtifact(name, func(w io.Writer) error {
		_, err := io.WriteString(w, chart)
		return err
	})
}

// tracedPanel is one Fig. 3 panel and its model-selection table: stream
// the panel's window into an ensemble sink, fit the modified
// Zipf–Mandelbrot law to the pooled ensemble, write the panel, then fit
// every registered family to the merged histogram and rank the fits.
func tracedPanel(c *scenario.Context, tr *tracer, parent int, spec netgen.PanelSpec, book *selectionBook) error {
	q := spec.Quantity
	sink := stream.NewEnsembleSink(q)
	req := scenario.WindowReq{Site: spec.Site, NV: spec.NV, Windows: spec.Windows}
	id := tr.start("scenario.stream", parent)
	_, err := c.Stream(req, stream.PipelineConfig{}, tracedSink(tr, id, sink))
	tr.stop(id)
	if err != nil {
		return err
	}
	ens, merged := sink.Ensemble(q), sink.Merged(q)
	mean, sigma := ens.Mean(), ens.Sigma()
	dmax := merged.MaxDegree()

	id = tr.start("zipfmand.fit", parent)
	fit, err := zipfmand.Fit(&hist.Pooled{D: mean, Total: merged.Total()}, dmax, zipfmand.FitOptions{LogSpace: true})
	tr.stop(id)
	if err != nil {
		return err
	}
	id = tr.start("zipfmand.pooled", parent)
	md, err := zipfmand.Model{Alpha: fit.Alpha, Delta: fit.Delta}.PooledD(dmax)
	tr.stop(id)
	if err != nil {
		return err
	}
	err = writeArtifact(c, tr, parent, "figure3_"+spec.ID+".csv", func(w io.Writer) error {
		rows := make([][]float64, len(mean))
		for i := range mean {
			mv := math.NaN()
			if i < len(md) {
				mv = md[i]
			}
			rows[i] = []float64{float64(hist.BinUpper(i)), mean[i], sigma[i], mv}
		}
		return plotio.WriteCSV(w, []string{"di", "mean_D", "sigma_D", "zm_fit"}, rows)
	})
	if err != nil {
		return err
	}
	err = writeChart(c, tr, parent, "figure3_"+spec.ID+".txt", []plotio.Series{
		plotio.PooledSeries("observed", mean, 'o'),
		plotio.PooledSeries("ZM fit", md, '+'),
	})
	if err != nil {
		return err
	}

	reg := model.Default()
	var fits []model.FitResult
	var failed []string
	for _, name := range reg.Names() {
		f, _ := reg.Lookup(name)
		id := tr.start("model.fit."+name, parent)
		res, err := f.Fit(merged)
		tr.stop(id)
		if err != nil {
			failed = append(failed, name)
			continue
		}
		fits = append(fits, res)
	}
	if len(fits) == 0 {
		return fmt.Errorf("every candidate fit failed on %s", spec.ID)
	}
	id = tr.start("model.select", parent)
	sel, err := model.Select(merged, fits)
	tr.stop(id)
	if err != nil {
		return err
	}
	var order []string
	for _, i := range sel.Order {
		order = append(order, sel.Results[i].Fitter)
	}
	book.mu.Lock()
	defer book.mu.Unlock()
	book.orders[spec.ID] = append(order, failed...)
	book.failures += len(failed)
	return nil
}

// tracedFigure4 is one Fig. 4 panel: the Zipf–Mandelbrot reference and
// the PALU curve for every r, pooled over the paper's degree range.
func tracedFigure4(c *scenario.Context, tr *tracer, parent int, panel experiments.Figure4Panel) error {
	id := tr.start("zipfmand.pooled", parent)
	zm, err := zipfmand.Model{Alpha: panel.Alpha, Delta: panel.Delta}.PooledD(figure4DMax)
	tr.stop(id)
	if err != nil {
		return err
	}
	curves := make([][]float64, len(panel.Rs))
	for i, r := range panel.Rs {
		id := tr.start("palu.curve", parent)
		curves[i], err = palu.Curve{Alpha: panel.Alpha, Delta: panel.Delta, R: r}.PooledD(figure4DMax)
		tr.stop(id)
		if err != nil {
			return fmt.Errorf("r=%v: %w", r, err)
		}
	}
	base := fmt.Sprintf("figure4_alpha%.1f", panel.Alpha)
	err = writeArtifact(c, tr, parent, base+".csv", func(w io.Writer) error {
		header := []string{"di", "zm"}
		for _, r := range panel.Rs {
			header = append(header, fmt.Sprintf("palu_r%g", r))
		}
		rows := make([][]float64, len(zm))
		for i := range zm {
			row := []float64{float64(hist.BinUpper(i)), zm[i]}
			for _, curve := range curves {
				v := math.NaN()
				if i < len(curve) {
					v = curve[i]
				}
				row = append(row, v)
			}
			rows[i] = row
		}
		return plotio.WriteCSV(w, header, rows)
	})
	if err != nil {
		return err
	}
	last := len(panel.Rs) - 1
	return writeChart(c, tr, parent, base+".txt", []plotio.Series{
		plotio.PooledSeries("ZM", zm, 'z'),
		plotio.PooledSeries(fmt.Sprintf("PALU r=%g", panel.Rs[0]), curves[0], '.'),
		plotio.PooledSeries(fmt.Sprintf("PALU r=%g", panel.Rs[last]), curves[last], '+'),
	})
}
