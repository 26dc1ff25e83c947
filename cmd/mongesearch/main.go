// Command mongesearch runs row-minima / row-maxima searches over generated
// or user-provided arrays and prints the argmin/argmax vectors, exercising
// every machine model.
//
// Usage:
//
//	mongesearch [-n 16] [-kind monge|staircase] [-op min|max] [-model seq|crcw|crew|hypercube] [-seed 1]
//
// Without -file the array is a random Monge (or staircase-Monge) array
// from the library's generator; with -file it is read as whitespace-
// separated rows ("inf" marks blocked staircase entries).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"monge/internal/core"
	"monge/internal/hcmonge"
	hc "monge/internal/hypercube"
	"monge/internal/marray"
	"monge/internal/pram"
	"monge/internal/smawk"
)

var (
	n     = flag.Int("n", 16, "generated array size")
	kind  = flag.String("kind", "monge", "monge or staircase")
	op    = flag.String("op", "min", "min or max (max requires kind=monge)")
	model = flag.String("model", "seq", "seq, crcw, crew, or hypercube")
	seed  = flag.Int64("seed", 1, "generator seed")
	file  = flag.String("file", "", "read the array from a file instead of generating")
)

func main() {
	flag.Parse()
	var a marray.Matrix
	if *file != "" {
		var err error
		a, err = readMatrix(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		if *kind == "staircase" {
			a = marray.RandomStaircaseMonge(rng, *n, *n)
		} else {
			a = marray.RandomMonge(rng, *n, *n)
		}
	}
	validate(a)
	idx := search(a)
	fmt.Printf("%s per row (%s model):\n", *op, *model)
	for i, j := range idx {
		if j < 0 {
			fmt.Printf("  row %3d: blocked\n", i)
			continue
		}
		fmt.Printf("  row %3d: col %3d  value %g\n", i, j, a.At(i, j))
	}
}

func validate(a marray.Matrix) {
	if a.Rows() > 64 || a.Cols() > 64 {
		return // predicates are quadratic+; skip for big arrays
	}
	switch {
	case *kind == "staircase" && !marray.IsStaircaseMonge(a):
		fmt.Fprintln(os.Stderr, "warning: array is not staircase-Monge; results may be wrong")
	case *kind == "monge" && !marray.IsMonge(a):
		fmt.Fprintln(os.Stderr, "warning: array is not Monge; results may be wrong")
	}
}

func search(a marray.Matrix) []int {
	m := a.Rows()
	nn := a.Cols()
	switch *model {
	case "seq":
		if *kind == "staircase" {
			return smawk.StaircaseRowMinima(a)
		}
		if *op == "max" {
			return smawk.MongeRowMaxima(a)
		}
		return smawk.RowMinima(a)
	case "crcw", "crew":
		mode := pram.CRCW
		if *model == "crew" {
			mode = pram.CREW
		}
		mach := pram.New(mode, m+nn)
		defer func() { fmt.Printf("charged time: %d, work: %d\n", mach.Time(), mach.Work()) }()
		if *kind == "staircase" {
			return core.StaircaseRowMinima(mach, a)
		}
		if *op == "max" {
			return core.MongeRowMaxima(mach, a)
		}
		return core.RowMinima(mach, a)
	case "hypercube":
		v := make([]int, m)
		w := make([]int, nn)
		for i := range v {
			v[i] = i
		}
		for j := range w {
			w[j] = j
		}
		f := func(i, j int) float64 { return a.At(i, j) }
		var idx []int
		mach := hcmonge.MachineFor(hc.Cube, m, nn)
		if *kind == "staircase" {
			bounds := make([]int, m)
			for i := range bounds {
				bounds[i] = marray.BoundaryOf(a, i)
			}
			idx = hcmonge.StaircaseRowMinimaOn(mach, v, bounds, w, f)
		} else if *op == "max" {
			idx = hcmonge.MongeRowMaximaOn(mach, v, w, f)
		} else {
			idx = hcmonge.RowMinimaOn(mach, v, w, f)
		}
		fmt.Printf("charged time: %d, comm: %d values\n", mach.Time(), mach.Comm())
		return idx
	}
	fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
	os.Exit(2)
	return nil
}

func readMatrix(path string) (marray.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		row := make([]float64, len(fields))
		for i, fld := range fields {
			if strings.EqualFold(fld, "inf") {
				row[i] = math.Inf(1)
				continue
			}
			v, err := strconv.ParseFloat(fld, 64)
			if err != nil {
				return nil, fmt.Errorf("bad entry %q: %v", fld, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("empty matrix in %s", path)
	}
	return marray.FromRows(rows), nil
}
