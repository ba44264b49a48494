package tpcc

import (
	"cmp"
	"fmt"
	"slices"

	"shadowdb/internal/core"
	"shadowdb/internal/sqldb"
)

// The five TPC-C transaction procedures. Arguments arrive as flat []any
// slices built by the generator in gen.go; all values are int64/float64
// (the generator normalizes), so replicas decode them identically.

func argInt(args []any, i int) (int64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("tpcc: missing argument %d", i)
	}
	switch v := args[i].(type) {
	case int64:
		return v, nil
	case int:
		return int64(v), nil
	case float64:
		return int64(v), nil
	default:
		return 0, fmt.Errorf("tpcc: argument %d is %T, want int", i, args[i])
	}
}

func argFloat(args []any, i int) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("tpcc: missing argument %d", i)
	}
	switch v := args[i].(type) {
	case float64:
		return v, nil
	case int64:
		return float64(v), nil
	case int:
		return float64(v), nil
	default:
		return 0, fmt.Errorf("tpcc: argument %d is %T, want float", i, args[i])
	}
}

// newOrderProc: args = [w, d, c, nLines, (item, supplyW, qty)*nLines].
// An item id of -1 signals the TPC-C 1% "unused item" case: the
// transaction aborts deterministically after doing its reads.
func newOrderProc(sc Scale) core.Procedure {
	return func(db *sqldb.DB, args []any) (core.ProcResult, error) {
		w, err := argInt(args, 0)
		if err != nil {
			return core.ProcResult{}, err
		}
		d, _ := argInt(args, 1)
		c, _ := argInt(args, 2)
		n, _ := argInt(args, 3)

		// Read warehouse and district tax, take the next order id.
		wres, err := db.Exec("SELECT w_tax FROM warehouse WHERE w_id = ?", w)
		if err != nil || len(wres.Rows) == 0 {
			return core.ProcResult{}, fmt.Errorf("warehouse %d: %v", w, err)
		}
		dres, err := db.Exec("SELECT d_tax, d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", w, d)
		if err != nil || len(dres.Rows) == 0 {
			return core.ProcResult{}, fmt.Errorf("district %d/%d: %v", w, d, err)
		}
		oid := dres.Rows[0][1].(int64)
		if _, err := db.Exec("UPDATE district SET d_next_o_id = ? WHERE d_w_id = ? AND d_id = ?",
			oid+1, w, d); err != nil {
			return core.ProcResult{}, err
		}
		if _, err := db.Exec("INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?)",
			w, d, oid, c, 0, n); err != nil {
			return core.ProcResult{}, err
		}
		if _, err := db.Exec("INSERT INTO new_order VALUES (?, ?, ?)", w, d, oid); err != nil {
			return core.ProcResult{}, err
		}
		total := 0.0
		for l := int64(0); l < n; l++ {
			base := 4 + int(l)*3
			item, err := argInt(args, base)
			if err != nil {
				return core.ProcResult{}, err
			}
			supplyW, _ := argInt(args, base+1)
			qty, _ := argInt(args, base+2)
			if item < 0 {
				// TPC-C 2.4.1.5: ~1% of NewOrders carry an invalid item
				// and must roll back. Deterministic across replicas.
				return core.ProcResult{}, core.ErrAbort
			}
			ires, err := db.Exec("SELECT i_price FROM item WHERE i_id = ?", item)
			if err != nil || len(ires.Rows) == 0 {
				return core.ProcResult{}, core.ErrAbort
			}
			price := ires.Rows[0][0].(float64)
			sres, err := db.Exec("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", supplyW, item)
			if err != nil || len(sres.Rows) == 0 {
				return core.ProcResult{}, core.ErrAbort
			}
			sq := sres.Rows[0][0].(int64)
			newQty := sq - qty
			if newQty < 10 {
				newQty += 91
			}
			if _, err := db.Exec(
				"UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, s_order_cnt = s_order_cnt + 1 WHERE s_w_id = ? AND s_i_id = ?",
				newQty, qty, supplyW, item); err != nil {
				return core.ProcResult{}, err
			}
			amount := float64(qty) * price
			total += amount
			if _, err := db.Exec("INSERT INTO order_line VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
				w, d, oid, l+1, item, supplyW, qty, amount, distInfo(int(w), int(l))); err != nil {
				return core.ProcResult{}, err
			}
		}
		return core.ProcResult{
			Cols: []string{"o_id", "total"},
			Rows: [][]sqldb.Value{{oid, total}},
		}, nil
	}
}

// paymentProc: args = [w, d, cW, cD, c, amount].
func paymentProc() core.Procedure {
	return func(db *sqldb.DB, args []any) (core.ProcResult, error) {
		w, err := argInt(args, 0)
		if err != nil {
			return core.ProcResult{}, err
		}
		d, _ := argInt(args, 1)
		cw, _ := argInt(args, 2)
		cd, _ := argInt(args, 3)
		c, _ := argInt(args, 4)
		amount, _ := argFloat(args, 5)

		if _, err := db.Exec("UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?", amount, w); err != nil {
			return core.ProcResult{}, err
		}
		if _, err := db.Exec("UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?",
			amount, w, d); err != nil {
			return core.ProcResult{}, err
		}
		if _, err := db.Exec(
			"UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
			amount, amount, cw, cd, c); err != nil {
			return core.ProcResult{}, err
		}
		bres, err := db.Exec("SELECT c_balance, c_payment_cnt FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
			cw, cd, c)
		if err != nil || len(bres.Rows) == 0 {
			return core.ProcResult{}, fmt.Errorf("payment customer %d/%d/%d: %v", cw, cd, c, err)
		}
		// The history key is (customer, payment count): deterministic and
		// unique, so replicas insert identical rows.
		seq := bres.Rows[0][1].(int64)
		if _, err := db.Exec("INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
			cw, cd, c, seq, d, w, amount, "payment"); err != nil {
			return core.ProcResult{}, err
		}
		return core.ProcResult{Cols: bres.Cols[:1], Rows: [][]sqldb.Value{{bres.Rows[0][0]}}}, nil
	}
}

// orderStatusProc: args = [w, d, c].
func orderStatusProc() core.Procedure {
	return func(db *sqldb.DB, args []any) (core.ProcResult, error) {
		w, err := argInt(args, 0)
		if err != nil {
			return core.ProcResult{}, err
		}
		d, _ := argInt(args, 1)
		c, _ := argInt(args, 2)
		if _, err := db.Exec("SELECT c_balance, c_first, c_last FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
			w, d, c); err != nil {
			return core.ProcResult{}, err
		}
		ores, err := db.Exec(
			"SELECT o_id, o_carrier_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? ORDER BY o_id DESC LIMIT 1",
			w, d, c)
		if err != nil {
			return core.ProcResult{}, err
		}
		if len(ores.Rows) == 0 {
			return core.ProcResult{Cols: []string{"o_id"}, Rows: nil}, nil
		}
		oid := ores.Rows[0][0]
		lres, err := db.Exec(
			"SELECT ol_i_id, ol_quantity, ol_amount FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
			w, d, oid)
		if err != nil {
			return core.ProcResult{}, err
		}
		return core.ProcResult{Cols: lres.Cols, Rows: lres.Rows}, nil
	}
}

// deliveryProc: args = [w, carrier]. Delivers the oldest undelivered
// order of every district.
func deliveryProc(sc Scale) core.Procedure {
	return func(db *sqldb.DB, args []any) (core.ProcResult, error) {
		w, err := argInt(args, 0)
		if err != nil {
			return core.ProcResult{}, err
		}
		carrier, _ := argInt(args, 1)
		delivered := int64(0)
		for d := 1; d <= sc.DistrictsPerW; d++ {
			nres, err := db.Exec(
				"SELECT no_o_id FROM new_order WHERE no_w_id = ? AND no_d_id = ? ORDER BY no_o_id LIMIT 1", w, d)
			if err != nil {
				return core.ProcResult{}, err
			}
			if len(nres.Rows) == 0 {
				continue
			}
			oid := nres.Rows[0][0].(int64)
			if _, err := db.Exec("DELETE FROM new_order WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?",
				w, d, oid); err != nil {
				return core.ProcResult{}, err
			}
			if _, err := db.Exec("UPDATE orders SET o_carrier_id = ? WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
				carrier, w, d, oid); err != nil {
				return core.ProcResult{}, err
			}
			ores, err := db.Exec("SELECT o_c_id FROM orders WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
				w, d, oid)
			if err != nil || len(ores.Rows) == 0 {
				return core.ProcResult{}, fmt.Errorf("delivery: order %d gone", oid)
			}
			cid := ores.Rows[0][0]
			sres, err := db.Exec(
				"SELECT SUM(ol_amount) FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
				w, d, oid)
			if err != nil {
				return core.ProcResult{}, err
			}
			total, _ := sres.Rows[0][0].(float64)
			if _, err := db.Exec(
				"UPDATE customer SET c_balance = c_balance + ?, c_delivery_cnt = c_delivery_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
				total, w, d, cid); err != nil {
				return core.ProcResult{}, err
			}
			delivered++
		}
		return core.ProcResult{Cols: []string{"delivered"}, Rows: [][]sqldb.Value{{delivered}}}, nil
	}
}

// stockLevelProc: args = [w, d, threshold]. Counts distinct recently
// ordered items whose stock is below the threshold.
func stockLevelProc() core.Procedure {
	return func(db *sqldb.DB, args []any) (core.ProcResult, error) {
		w, err := argInt(args, 0)
		if err != nil {
			return core.ProcResult{}, err
		}
		d, _ := argInt(args, 1)
		threshold, _ := argInt(args, 2)
		dres, err := db.Exec("SELECT d_next_o_id FROM district WHERE d_w_id = ? AND d_id = ?", w, d)
		if err != nil || len(dres.Rows) == 0 {
			return core.ProcResult{}, fmt.Errorf("stock_level district: %v", err)
		}
		next := dres.Rows[0][0].(int64)
		lres, err := db.Exec(
			"SELECT ol_i_id FROM order_line WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id >= ? AND ol_o_id < ?",
			w, d, next-20, next)
		if err != nil {
			return core.ProcResult{}, err
		}
		// The distinct items, in item order, kept boxed as the walk
		// returned them so that each lookup's argument costs nothing.
		items := make([]sqldb.Value, len(lres.Rows))
		for i, row := range lres.Rows {
			items[i] = row[0]
		}
		slices.SortFunc(items, func(a, b sqldb.Value) int { return cmp.Compare(a.(int64), b.(int64)) })
		low := int64(0)
		for _, item := range slices.Compact(items) {
			sres, err := db.Exec("SELECT s_quantity FROM stock WHERE s_w_id = ? AND s_i_id = ?", w, item)
			if err != nil || len(sres.Rows) == 0 {
				continue
			}
			if sres.Rows[0][0].(int64) < threshold {
				low++
			}
		}
		return core.ProcResult{Cols: []string{"low_stock"}, Rows: [][]sqldb.Value{{low}}}, nil
	}
}
