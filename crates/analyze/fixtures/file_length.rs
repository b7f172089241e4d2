//! file-length fixture: six non-test lines, then a test module the rule
//! must not count.
pub fn one() {}
pub fn two() {}
pub fn three() {}

#[cfg(test)]
mod tests {
    #[test]
    fn counted_nowhere() {
        super::one();
    }
}
