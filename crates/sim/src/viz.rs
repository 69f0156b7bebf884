//! ASCII rendering of a query's book-keeping state.
//!
//! Debugging a spatial monitor usually means *looking* at it: which cells
//! a query registered, how far the visit list reaches past the influence
//! circle. [`render_query`] prints the diagrams the paper draws (Figures
//! 3.2 and 3.5) from live state.

use cpm_core::CpmServer;
use cpm_geom::QueryId;
use cpm_grid::CellCoord;

/// Render one query's book-keeping over the grid (top row = north):
///
/// * `Q` — the query cell;
/// * `#` — cells of the influence region (registered in influence lists);
/// * `+` — cells in the visit list beyond the influence region;
/// * `h` — cells left in the search heap;
/// * digits — object count of other cells (9 = nine or more);
/// * `·` — empty cell.
///
/// Intended for small grids (≤ 64²); returns `None` if the query is not
/// an installed k-NN query.
pub fn render_query(server: &CpmServer, id: QueryId) -> Option<String> {
    let st = server.query_state(id)?;
    let q = st.spec.as_knn()?;
    let grid = server.grid();
    let dim = grid.dim();
    let mut glyphs = vec![b'\0'; (dim as usize) * (dim as usize)];
    let at = |c: CellCoord| (c.row as usize) * dim as usize + c.col as usize;

    for (i, &(cell, _)) in st.visit_list.iter().enumerate() {
        glyphs[at(cell)] = if i < st.influence_len { b'#' } else { b'+' };
    }
    glyphs[at(grid.cell_of(q))] = b'Q';

    let mut out = String::with_capacity(((dim + 1) * dim) as usize);
    for row in (0..dim).rev() {
        for col in 0..dim {
            let cell = CellCoord::new(col, row);
            let g = glyphs[at(cell)];
            if g != b'\0' {
                out.push(g as char);
            } else {
                let n = grid.cell_len(cell);
                out.push(match n {
                    0 => '\u{b7}', // ·
                    1..=8 => (b'0' + n as u8) as char,
                    _ => '9',
                });
            }
        }
        out.push('\n');
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_core::{CpmServerBuilder, PointQuery};
    use cpm_geom::{ObjectId, Point};

    fn monitor() -> CpmServer {
        let mut m = CpmServerBuilder::new(8).build();
        m.populate([
            (ObjectId(0), Point::new(0.32, 0.55)),
            (ObjectId(1), Point::new(0.51, 0.50)),
            (ObjectId(2), Point::new(0.92, 0.93)),
        ])
        .expect("a valid initial population");
        let _ = m
            .install_spec(QueryId(0), PointQuery(Point::new(0.5, 0.55)), 1)
            .unwrap();
        m
    }

    #[test]
    fn query_rendering_marks_regions() {
        let m = monitor();
        let s = render_query(&m, QueryId(0)).unwrap();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 8);
        assert!(lines.iter().all(|l| l.chars().count() == 8));
        assert_eq!(s.matches('Q').count(), 1);
        // Influence glyphs match the registered prefix minus the query
        // cell (which renders as Q even when registered).
        let st = m.query_state(QueryId(0)).unwrap();
        let hashes = s.matches('#').count();
        assert!(
            hashes + 1 >= st.influence_len && hashes <= st.influence_len,
            "{hashes} hashes vs influence_len {}",
            st.influence_len
        );
        assert!(render_query(&m, QueryId(9)).is_none());
    }
}
