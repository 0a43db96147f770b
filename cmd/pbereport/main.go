// Command pbereport renders one scenario into a paper-style figure: per
// scheme, the oracle capacity, the transport's capacity estimate and the
// achieved delivery rate over virtual time on the common 40 ms window
// grid, with injected-fault windows shaded - the visual analogue of the
// source paper's Figs. 6-9, and the first artifact that lets a human
// compare this reproduction's trajectories against the paper's. Panels
// are annotated with the sweep's trajectory analytics (convergence time,
// tracking lag), so the figure and the CI gate describe the same
// numbers.
//
// Usage:
//
//	pbereport -schemes pbe,cubic -out report.svg
//	pbereport -family rtc -schemes pbertc,gcc -fault-handover 0.5 -out f.svg -csv f.csv
//
// The SVG is hand-rolled with fixed-precision coordinates and no
// timestamps, so the bytes are a pure function of the scenario: CI
// renders the committed docs/ example twice and byte-compares
// (report-det gate).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"pbecc/internal/faults"
	"pbecc/internal/harness"
	"pbecc/internal/sweep"
)

func main() {
	family := flag.String("family", "steady", "scenario family (see pbesweep -list)")
	schemes := flag.String("schemes", "pbe,cubic", "comma-separated schemes, one panel each")
	rat := flag.String("rat", harness.RATLTE, "radio access technology: lte or nr")
	seed := flag.Int64("seed", 1, "simulation seed")
	dur := flag.Duration("duration", 4*time.Second, "simulated duration")
	var fspec faults.Spec
	fspec.RegisterFlags(flag.CommandLine)
	out := flag.String("out", "-", "SVG file ('-' = stdout)")
	csvOut := flag.String("csv", "", "also write the plotted trajectories as CSV to this file ('-' = stdout)")
	flag.Parse()
	if *out == "-" && *csvOut == "-" {
		fatal(fmt.Errorf("-out and -csv both name stdout: give one of them a file"))
	}

	var panels []panel
	for _, scheme := range strings.Split(*schemes, ",") {
		scheme = strings.TrimSpace(scheme)
		if scheme == "" {
			continue
		}
		sc, err := harness.BuildScenario(*family, scheme, harness.Params{
			Seed: *seed, Duration: *dur, RAT: *rat,
			Faults: fspec,
		})
		if err != nil {
			fatal(err)
		}
		sc.Series = true
		res := harness.Run(sc)
		if res.Series == nil {
			fatal(fmt.Errorf("scenario produced no series recorder"))
		}
		tr := sweep.BuildTrajectory(res.Series, sc.Flows[0].ID, sc.Flows[0].UE)
		if len(tr.Rate) == 0 {
			fatal(fmt.Errorf("scheme %s recorded no trajectory", scheme))
		}
		panels = append(panels, panel{scheme: scheme, traj: tr})
	}
	if len(panels) == 0 {
		fatal(fmt.Errorf("no schemes given"))
	}

	title := fmt.Sprintf("%s/%s seed %d", *family, *rat, *seed)
	if err := writeTo(*out, func(w io.Writer) error { return renderSVG(w, title, panels) }); err != nil {
		fatal(err)
	}
	if *csvOut != "" {
		if err := writeTo(*csvOut, func(w io.Writer) error { return renderCSV(w, panels) }); err != nil {
			fatal(err)
		}
	}
}

type panel struct {
	scheme string
	traj   *sweep.Trajectory
}

// Fixed figure geometry, in SVG user units.
const (
	plotW   = 720.0
	plotH   = 130.0
	marginL = 64.0
	marginR = 16.0
	marginT = 34.0
	gapV    = 34.0
	footerH = 26.0
)

// fmtF renders a coordinate with fixed two-decimal precision:
// deterministic bytes, and precise enough at figure scale.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

// polyline renders one trajectory as an SVG polyline, skipping windows
// with no data (zero) so gaps stay gaps instead of plunging to the axis.
func polyline(bw *bufio.Writer, vals []float64, n int, x0, y0, yMax float64, style string) {
	var pts []string
	flush := func() {
		if len(pts) > 1 {
			fmt.Fprintf(bw, "<polyline points=%q style=%q fill=\"none\"/>\n",
				strings.Join(pts, " "), style)
		}
		pts = pts[:0]
	}
	for w := 0; w < n && w < len(vals); w++ {
		if vals[w] <= 0 {
			flush()
			continue
		}
		x := x0 + plotW*(float64(w)+0.5)/float64(n)
		y := y0 + plotH - plotH*vals[w]/yMax
		pts = append(pts, fmtF(x)+","+fmtF(y))
	}
	flush()
}

// niceCeil rounds up to 1/2/5 x 10^k, the usual axis-limit ladder.
func niceCeil(v float64) float64 {
	if v <= 0 {
		return 1
	}
	mag := math.Pow(10, math.Floor(math.Log10(v)))
	for _, m := range []float64{1, 2, 5, 10} {
		if v <= m*mag {
			return m * mag
		}
	}
	return 10 * mag
}

func renderSVG(w io.Writer, title string, panels []panel) error {
	n := 0
	for _, p := range panels {
		if len(p.traj.Rate) > n {
			n = len(p.traj.Rate)
		}
	}
	width := marginL + plotW + marginR
	height := marginT + float64(len(panels))*(plotH+gapV) + footerH
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%s\" height=\"%s\" viewBox=\"0 0 %s %s\" font-family=\"sans-serif\" font-size=\"11\">\n",
		fmtF(width), fmtF(height), fmtF(width), fmtF(height))
	fmt.Fprintf(bw, "<rect width=\"100%%\" height=\"100%%\" fill=\"white\"/>\n")
	fmt.Fprintf(bw, "<text x=%q y=\"18\" font-size=\"13\">capacity / estimate / delivered rate — %s</text>\n", fmtF(marginL), title)
	// Legend, top right.
	lx := marginL + plotW - 300
	for _, item := range []struct{ label, style string }{
		{"capacity (oracle)", "stroke:#9aa0a6;stroke-width:1.5"},
		{"estimate", "stroke:#1a73e8;stroke-width:1.2;stroke-dasharray:4 3"},
		{"delivered", "stroke:#d93025;stroke-width:1.5"},
	} {
		fmt.Fprintf(bw, "<line x1=%q y1=\"14\" x2=%q y2=\"14\" style=%q/>\n", fmtF(lx), fmtF(lx+22), item.style)
		fmt.Fprintf(bw, "<text x=%q y=\"18\" font-size=\"10\">%s</text>\n", fmtF(lx+26), item.label)
		lx += float64(12*len(item.label))/2 + 50
	}

	for i, p := range panels {
		tr := p.traj
		y0 := marginT + float64(i)*(plotH+gapV)
		yMax := 0.0
		for _, series := range [][]float64{tr.Truth, tr.Est, tr.Rate} {
			for _, v := range series {
				if v > yMax {
					yMax = v
				}
			}
		}
		yMax = niceCeil(yMax * 1.05)

		// Fault-window shading first, under everything.
		for _, fw := range tr.FaultWins {
			if fw >= n {
				continue
			}
			x := marginL + plotW*float64(fw)/float64(n)
			fmt.Fprintf(bw, "<rect x=%q y=%q width=%q height=%q fill=\"#fce8e6\"/>\n",
				fmtF(x), fmtF(y0), fmtF(plotW/float64(n)), fmtF(plotH))
		}
		// Frame, y ticks and labels.
		fmt.Fprintf(bw, "<rect x=%q y=%q width=%q height=%q fill=\"none\" stroke=\"#444\" stroke-width=\"0.8\"/>\n",
			fmtF(marginL), fmtF(y0), fmtF(plotW), fmtF(plotH))
		for _, frac := range []float64{0, 0.5, 1} {
			yv := yMax * frac
			y := y0 + plotH - plotH*frac
			fmt.Fprintf(bw, "<line x1=%q y1=%q x2=%q y2=%q stroke=\"#ddd\" stroke-width=\"0.5\"/>\n",
				fmtF(marginL), fmtF(y), fmtF(marginL+plotW), fmtF(y))
			fmt.Fprintf(bw, "<text x=%q y=%q text-anchor=\"end\" font-size=\"9\">%s</text>\n",
				fmtF(marginL-6), fmtF(y+3), fmtF(yv))
		}
		fmt.Fprintf(bw, "<text x=\"14\" y=%q transform=\"rotate(-90 14 %s)\" text-anchor=\"middle\" font-size=\"9\">Mbit/s</text>\n",
			fmtF(y0+plotH/2), fmtF(y0+plotH/2))

		polyline(bw, tr.Truth, n, marginL, y0, yMax, "stroke:#9aa0a6;stroke-width:1.5")
		polyline(bw, tr.Est, n, marginL, y0, yMax, "stroke:#1a73e8;stroke-width:1.2;stroke-dasharray:4 3")
		polyline(bw, tr.Rate, n, marginL, y0, yMax, "stroke:#d93025;stroke-width:1.5")

		// Panel label with the gated analytics.
		label := p.scheme
		if c := tr.ConvergenceMs(); c >= 0 {
			label += fmt.Sprintf("  conv %s ms", fmtF(c))
		}
		if l := tr.TrackingLagMs(); l >= 0 {
			label += fmt.Sprintf("  lag %s ms", fmtF(l))
		}
		fmt.Fprintf(bw, "<text x=%q y=%q font-size=\"11\" font-weight=\"bold\">%s</text>\n",
			fmtF(marginL+6), fmtF(y0-6), label)
	}

	// Shared x axis on the last panel.
	yAxis := marginT + float64(len(panels))*(plotH+gapV) - gapV
	totalSec := float64(n) * 0.04
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		x := marginL + plotW*frac
		fmt.Fprintf(bw, "<text x=%q y=%q text-anchor=\"middle\" font-size=\"9\">%s</text>\n",
			fmtF(x), fmtF(yAxis+14), fmtF(totalSec*frac))
	}
	fmt.Fprintf(bw, "<text x=%q y=%q text-anchor=\"middle\" font-size=\"10\">time (s)</text>\n",
		fmtF(marginL+plotW/2), fmtF(yAxis+26))
	fmt.Fprintf(bw, "</svg>\n")
	return bw.Flush()
}

// renderCSV writes the plotted trajectories: one row per window, one
// rate/truth/est column triple per scheme, empty cells where a window
// has no data.
func renderCSV(w io.Writer, panels []panel) error {
	n := 0
	for _, p := range panels {
		if len(p.traj.Rate) > n {
			n = len(p.traj.Rate)
		}
	}
	bw := bufio.NewWriter(w)
	bw.WriteString("t_ms")
	for _, p := range panels {
		fmt.Fprintf(bw, ",%s.rate_mbps,%s.truth_mbps,%s.est_mbps", p.scheme, p.scheme, p.scheme)
	}
	bw.WriteString("\n")
	cell := func(vals []float64, w int) string {
		if w < len(vals) && vals[w] > 0 {
			return fmtF(vals[w])
		}
		return ""
	}
	for win := 0; win < n; win++ {
		fmt.Fprintf(bw, "%d", win*40)
		for _, p := range panels {
			fmt.Fprintf(bw, ",%s,%s,%s",
				cell(p.traj.Rate, win), cell(p.traj.Truth, win), cell(p.traj.Est, win))
		}
		bw.WriteString("\n")
	}
	return bw.Flush()
}

func writeTo(path string, render func(io.Writer) error) error {
	if path == "-" {
		return render(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pbereport:", err)
	os.Exit(2)
}
