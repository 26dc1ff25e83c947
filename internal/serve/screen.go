package serve

import (
	"monge/internal/marray"
	"monge/internal/merr"
	"monge/internal/minplus"
)

// Screen runs the sampled structural check q's kind needs, in O(m+n)
// deterministic probes that never reject a valid input:
//
//	RowMinima           the Monge screen on A
//	StaircaseRowMinima  the staircase-Monge screen on A
//	TubeMaxima          the Monge screen on both factors of C
//	SubmatrixMax        a non-nil Index and an in-range rectangle
//	RangeRowMinima      a non-nil Index and an in-range row span
//	MinPlus             ScreenMatrix on both factors
//	MLinkPath           the link-weight quadrangle screen on W
//
// It returns the typed error (ErrNotMonge, ErrNotStaircase,
// ErrDimensionMismatch) without enqueueing anything; unknown kinds pass
// and resolve with ErrUnknownKind on their ticket.
func (q Query) Screen() error {
	switch q.Kind {
	case RowMinima:
		return marray.CheckMongeSampled(q.A)
	case StaircaseRowMinima:
		return marray.CheckStaircaseMongeSampled(q.A)
	case TubeMaxima:
		if err := marray.CheckMongeSampled(q.C.D); err != nil {
			return err
		}
		return marray.CheckMongeSampled(q.C.E)
	case SubmatrixMax:
		if q.Index == nil {
			return merr.Errorf(merr.ErrDimensionMismatch, "serve: SubmatrixMax query without an index")
		}
		return q.Index.CheckSubmatrix(q.R1, q.R2, q.C1, q.C2)
	case RangeRowMinima:
		if q.Index == nil {
			return merr.Errorf(merr.ErrDimensionMismatch, "serve: RangeRowMinima query without an index")
		}
		return q.Index.CheckRowRange(q.R1, q.R2)
	case MinPlus:
		if _, err := ScreenMatrix(q.A); err != nil {
			return err
		}
		_, err := ScreenMatrix(q.B)
		return err
	case MLinkPath:
		return minplus.CheckLinkWeightSampled(q.N, q.W)
	}
	return nil
}

// ScreenMatrix screens a (min,+) factor or an index input by the
// blocking it carries: marray.StairProbe finds any +Inf staircase in a
// matrix that does not declare one, and the result gets the
// staircase-Monge screen when blocked, the plain Monge screen
// otherwise. It returns the probed matrix, which carries the Staircase
// interface whenever a is blocked.
func ScreenMatrix(a marray.Matrix) (marray.Matrix, error) {
	in := marray.StairProbe(a)
	if _, stair := in.(marray.Staircase); stair {
		return in, marray.CheckStaircaseMongeSampled(in)
	}
	return in, marray.CheckMongeSampled(in)
}
