//! ASCII rendering of grids and query book-keeping state.
//!
//! Debugging a spatial monitor usually means *looking* at it: where the
//! objects cluster, which cells a query registered, how far the visit list
//! reaches past the influence circle. These renderers print exactly the
//! diagrams the paper draws (Figures 3.2, 3.5, 4.1) from live state.

use cpm_core::CpmServer;
use cpm_geom::QueryId;
use cpm_grid::{CellCoord, Grid};

/// Density glyphs from empty to crowded.
const SHADES: &[u8] = b" .:-=+*#%@";

/// Render an object-density map of the grid, downsampled to at most
/// `max_side × max_side` character cells (top row = north).
pub fn render_density(grid: &Grid, max_side: u32) -> String {
    let dim = grid.dim();
    let side = dim.min(max_side.max(1));
    let block = dim.div_ceil(side);
    let side = dim.div_ceil(block);
    let mut counts = vec![0usize; (side * side) as usize];
    for cell in grid.occupied_cells() {
        let c = (cell.col / block).min(side - 1);
        let r = (cell.row / block).min(side - 1);
        counts[(r * side + c) as usize] += grid.cell_len(cell);
    }
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::with_capacity(((side + 3) * side) as usize);
    for r in (0..side).rev() {
        for c in 0..side {
            let v = counts[(r * side + c) as usize];
            let idx = if v == 0 {
                0
            } else {
                1 + (v * (SHADES.len() - 2)) / max
            };
            out.push(SHADES[idx.min(SHADES.len() - 1)] as char);
        }
        out.push('\n');
    }
    out
}

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
        ]);
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

    #[test]
    fn density_rendering_shapes() {
        let m = monitor();
        let s = render_density(m.grid(), 8);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 8);
        // Crowded-most block must use the top shade; empty blocks blank.
        assert!(s.contains('@'));
        assert!(s.contains(' '));
        // Downsampling to 4 halves the sides.
        let small = render_density(m.grid(), 4);
        assert_eq!(small.lines().count(), 4);
    }

    #[test]
    fn density_handles_empty_grid() {
        let g = cpm_grid::GridBuilder::new(16).build_uniform();
        let s = render_density(&g, 8);
        assert!(s.chars().all(|c| c == ' ' || c == '\n'));
    }
}
